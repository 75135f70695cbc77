// Package pagecodec is a miniature copy of the engine's page codec for
// the pageretain fixtures.
package pagecodec

import "core"

// AppendPage encodes pg onto buf.
func AppendPage(buf []byte, pg core.Page) []byte {
	_ = pg
	return buf
}

// DecodePage decodes one page from buf into the frame dst. aliasBytes
// reports how many bytes of the decoded payloads still alias buf; if
// non-zero, buf must outlive the page (or the page must be deep-copied)
// before buf is recycled.
func DecodePage(dst core.Page, buf []byte) (pg core.Page, aliasBytes int, read int, err error) {
	return dst[:0], len(buf), len(buf), nil
}
