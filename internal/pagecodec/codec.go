// Package pagecodec implements the binary page framing shared by the
// disk-backed run stores: a varint record count followed by, per record, an
// 8-byte little-endian key, a varint payload length and the payload bytes.
//
// The codec is allocation-conscious by design. Encoding appends to a
// caller-provided buffer (so write buffers can be pooled), and decoding is
// zero-copy: payloads are sub-slices of the encoded buffer, and the records
// land in a caller-provided page frame when it is large enough, so a
// steady-state decode allocates nothing no matter how many records carry
// payloads. Callers therefore must not mutate the encoded buffer while
// decoded records are live, and must copy Record.Payload if they retain it
// past the buffer's lifetime.
//
// Two frame versions exist. The legacy frame (AppendPage/DecodePage) is the
// bare body described above. The checksummed frame (AppendPageSum/
// DecodePageSum) prefixes the body with a one-byte version marker and a
// CRC32-Castagnoli of the body, so silent corruption (bit rot, torn reads)
// is detected instead of decoded. Stores choose a frame per run file and
// must decode with the matching function: the two framings are not
// self-describing on the wire.
package pagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/memadapt/masort/internal/core"
)

// ErrChecksum is returned (wrapped) by DecodePageSum when the frame is
// structurally broken or the body fails CRC verification — the page bytes
// are corrupt and must not be trusted.
var ErrChecksum = errors.New("pagecodec: page checksum mismatch")

const (
	// sumMarker is the version byte opening a checksummed frame.
	sumMarker = 0xA5
	// sumOverhead is the framing cost of a checksummed page: the marker
	// byte plus a 4-byte little-endian CRC32-Castagnoli of the body.
	sumOverhead = 5
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendPage appends the wire encoding of pg to buf and returns the
// extended buffer. It never fails: the encoding is defined for every page.
func AppendPage(buf []byte, pg core.Page) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pg)))
	for _, rec := range pg {
		buf = binary.LittleEndian.AppendUint64(buf, rec.Key)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// EncodedSize returns the exact number of bytes AppendPage will append
// for pg.
func EncodedSize(pg core.Page) int {
	n := uvarintLen(uint64(len(pg)))
	for _, rec := range pg {
		n += 8 + uvarintLen(uint64(len(rec.Payload))) + len(rec.Payload)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodePage decodes one page from the front of buf into dst[:0], or into
// a new page when cap(dst) is smaller than the page's record count; dst may
// be nil. On error the contents of dst are unspecified.
//
// Payloads are zero-copy sub-slices of buf: the returned aliasBytes is the
// total number of payload bytes aliasing buf. When aliasBytes is zero the
// caller may recycle buf immediately; otherwise buf is owned by the decoded
// page until every record referencing it is dead. read is the number of
// bytes consumed from buf.
func DecodePage(dst core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("pagecodec: bad record count")
	}
	pos := n
	if cnt > uint64(len(buf)) { // each record takes at least one byte
		return nil, 0, 0, fmt.Errorf("pagecodec: record count %d exceeds buffer", cnt)
	}
	if uint64(cap(dst)) >= cnt {
		pg = dst[:0]
	} else {
		pg = make(core.Page, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		if pos+8 > len(buf) {
			return nil, 0, 0, fmt.Errorf("pagecodec: truncated key at record %d", i)
		}
		key := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		plen, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, 0, fmt.Errorf("pagecodec: bad payload length at record %d", i)
		}
		pos += n
		if plen > uint64(len(buf)-pos) {
			return nil, 0, 0, fmt.Errorf("pagecodec: truncated payload at record %d", i)
		}
		var payload []byte
		if plen > 0 {
			payload = buf[pos : pos+int(plen) : pos+int(plen)]
			aliasBytes += int(plen)
			pos += int(plen)
		}
		pg = append(pg, core.Record{Key: key, Payload: payload})
	}
	return pg, aliasBytes, pos, nil
}

// AppendPageSum appends the checksummed encoding of pg to buf: the version
// marker, a little-endian CRC32-Castagnoli over the legacy body, then the
// body itself. Like AppendPage it never fails.
func AppendPageSum(buf []byte, pg core.Page) []byte {
	start := len(buf)
	buf = append(buf, sumMarker, 0, 0, 0, 0)
	buf = AppendPage(buf, pg)
	sum := crc32.Checksum(buf[start+sumOverhead:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+1:], sum)
	return buf
}

// EncodedSizeSum returns the exact number of bytes AppendPageSum will
// append for pg.
func EncodedSizeSum(pg core.Page) int {
	return sumOverhead + EncodedSize(pg)
}

// DecodePageSum decodes one checksummed page from the front of buf,
// verifying the body CRC before returning records. A bad marker, a
// truncated frame, a structurally broken body or a CRC mismatch all return
// an error wrapping ErrChecksum: with a checksummed frame, any decode
// failure means the bytes on disk are not the bytes that were written.
// Destination, alias and read semantics match DecodePage (read includes
// the frame overhead).
func DecodePageSum(dst core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	if len(buf) < sumOverhead {
		return nil, 0, 0, fmt.Errorf("pagecodec: frame truncated to %d bytes: %w", len(buf), ErrChecksum)
	}
	if buf[0] != sumMarker {
		return nil, 0, 0, fmt.Errorf("pagecodec: bad frame marker %#02x: %w", buf[0], ErrChecksum)
	}
	want := binary.LittleEndian.Uint32(buf[1:])
	body := buf[sumOverhead:]
	pg, aliasBytes, read, err = DecodePage(dst, body)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%v: %w", err, ErrChecksum)
	}
	if got := crc32.Checksum(body[:read], castagnoli); got != want {
		return nil, 0, 0, fmt.Errorf("pagecodec: crc %08x != stored %08x: %w", got, want, ErrChecksum)
	}
	return pg, aliasBytes, sumOverhead + read, nil
}
