package masort

import (
	"sync"

	"github.com/memadapt/masort/internal/pagecodec"
)

// frames holds the page frames FileStore and MmapStore decode reads into.
// A frame goes back to the pool when the engine recycles the page it held,
// so a sort's steady-state reads decode into frames its earlier reads
// released instead of allocating one per page.
var frames sync.Pool // *Page, every record zeroed

// getFrame returns a pooled frame, or nil when the pool is empty (the
// decoder then allocates one of the right size).
func getFrame() Page {
	if f, ok := frames.Get().(*Page); ok {
		return *f
	}
	return nil
}

// putFrame returns a frame to the pool. Its records are zeroed first: a
// pooled frame must not pin payload read buffers, or point into a mapping
// that MmapStore.Close unmaps.
func putFrame(pg Page) {
	if cap(pg) == 0 {
		return
	}
	pg = pg[:cap(pg)]
	clear(pg)
	frames.Put(&pg)
}

// recycler is implemented by the stores whose ReadAsync pages are pooled
// frames. newEnv installs it as the engine's core.Env.Recycle hook, and
// runIterator calls it too; a store wrapped in a caller's type hides it, so
// its reads simply stay unpooled.
type recycler interface {
	recycle(Page)
}

// The disk stores' recycle returns a page read from the store to the frame
// pool (a StripedStore's devices are FileStores); the caller must not
// reference the page afterwards.

func (s *FileStore) recycle(pg Page)    { putFrame(pg) }
func (s *MmapStore) recycle(pg Page)    { putFrame(pg) }
func (s *StripedStore) recycle(pg Page) { putFrame(pg) }

// bufPool recycles the byte buffers disk stores encode write batches into
// and read page extents into.
type bufPool struct {
	p sync.Pool // *[]byte
}

// getBuf returns a buffer of length n, pooled when one is large enough.
func (b *bufPool) getBuf(n int) []byte {
	if v := b.p.Get(); v != nil {
		buf := *(v.(*[]byte))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

func (b *bufPool) putBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	b.p.Put(&buf)
}

// encodedSize is the exact length of the batch appendPage builds from
// pages, so a store can size its write buffer before encoding.
func encodedSize(pages []Page, sums bool) int {
	n := 0
	for _, pg := range pages {
		if sums {
			n += pagecodec.EncodedSizeSum(pg)
		} else {
			n += pagecodec.EncodedSize(pg)
		}
	}
	return n
}

// appendPage appends pg in the store's framing: checksummed or legacy.
func appendPage(buf []byte, pg Page, sums bool) []byte {
	if sums {
		return pagecodec.AppendPageSum(buf, pg)
	}
	return pagecodec.AppendPage(buf, pg)
}
