// Package store exercises pageretain: Append page retention (rule A),
// use-after-recycle of pooled buffers and page frames (rule B), and
// discarded DecodePage alias accounting (rule C).
package store

import (
	"sync"

	"core"
	"pagecodec"
)

// goodStore is the MemStore idiom: Append deep-copies every page before
// retaining anything, so the caller may recycle its buffers the moment
// the token completes.
type goodStore struct {
	runs map[int][]core.Page
}

func (s *goodStore) Append(id int, pages []core.Page) error {
	for _, p := range pages {
		cp := make(core.Page, len(p))
		copy(cp, p)
		s.runs[id] = append(s.runs[id], cp)
	}
	return nil
}

// badStore retains the caller's pages directly: every page it "stores"
// will be overwritten the next time the engine recycles its output
// buffers.
type badStore struct {
	runs  map[int][]core.Page
	last  core.Page
	stash []core.Page
}

func (s *badStore) Append(id int, pages []core.Page) error {
	s.runs[id] = append(s.runs[id], pages...) // want `page slice from Append is stored in a map or slice element`
	return nil
}

// badStoreElem retains a single element through a range variable.
type badStoreElem struct{ badStore }

func (s *badStoreElem) Append(id int, pages []core.Page) error {
	for _, p := range pages {
		s.last = p // want `page slice from Append is stored in a struct field`
	}
	return nil
}

// badStoreLocal launders the slice through a local before retaining it.
type badStoreLocal struct{ badStore }

func (s *badStoreLocal) Append(id int, pages []core.Page) error {
	view := pages[1:]
	s.stash = view // want `page slice from Append is stored in a struct field`
	return nil
}

// badStoreGo hands the pages to a goroutine whose lifetime nothing ties
// to the write token.
type badStoreGo struct{ badStore }

func (s *badStoreGo) Append(id int, pages []core.Page) error {
	go func() {
		for range pages { // want `page slice pages captured by a goroutine launched from Append`
		}
	}()
	return nil
}

// encodingStore is the FileStore idiom: pages are encoded into a private
// buffer inside Append; only the encoding is retained. Clean.
type encodingStore struct {
	bufs sync.Pool
	log  [][]byte
}

func (s *encodingStore) Append(id int, pages []core.Page) error {
	buf := s.getBuf()
	for _, pg := range pages {
		buf = pagecodec.AppendPage(buf, pg)
	}
	s.log = append(s.log, buf)
	return nil
}

func (s *encodingStore) getBuf() []byte {
	b, _ := s.bufs.Get().(*[]byte)
	if b == nil {
		return nil
	}
	return (*b)[:0]
}

func (s *encodingStore) putBuf(b []byte) {
	s.bufs.Put(&b)
}

// readGood recycles the read buffer only on the no-alias path and never
// touches it afterwards.
func (s *encodingStore) readGood(buf []byte) (core.Page, error) {
	pg, alias, _, err := pagecodec.DecodePage(nil, buf)
	if err != nil {
		s.putBuf(buf)
		return nil, err
	}
	if alias == 0 {
		s.putBuf(buf)
	}
	return pg, nil
}

// readUseAfterPut recycles the buffer and then keeps decoding from it.
func (s *encodingStore) readUseAfterPut(buf []byte) (core.Page, error) {
	s.putBuf(buf)
	pg, _, _, err := pagecodec.DecodePage(nil, buf) // want `buffer buf used after being returned to the pool` `aliasBytes result of DecodePage is discarded`
	return pg, err
}

// readPoolPut recycles through sync.Pool.Put directly.
func (s *encodingStore) readPoolPut(buf []byte) int {
	s.bufs.Put(&buf)
	return len(buf) // want `buffer buf used after being returned to the pool`
}

// readReassigned gets a fresh buffer after recycling the old one: the
// later uses refer to the new allocation. Clean.
func (s *encodingStore) readReassigned(buf []byte) int {
	s.putBuf(buf)
	buf = s.getBuf()
	return len(buf)
}

// readDropAlias recycles the buffer on an error path while discarding the
// aliasBytes result that says whether pg still points into it.
func (s *encodingStore) readDropAlias(buf []byte) (core.Page, error) {
	pg, _, _, err := pagecodec.DecodePage(nil, buf) // want `aliasBytes result of DecodePage is discarded`
	if err != nil {
		s.putBuf(buf)
		return nil, err
	}
	return pg, nil
}

// readAliasHonored keeps the aliasBytes result and gates the recycle on
// it. Clean.
func (s *encodingStore) readAliasHonored(buf []byte) (core.Page, error) {
	pg, alias, _, err := pagecodec.DecodePage(nil, buf)
	if err != nil || alias == 0 {
		s.putBuf(buf)
	}
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// frameStore decodes reads into pooled page frames and takes them back
// through recycle, like FileStore and MmapStore.
type frameStore struct {
	frames sync.Pool
}

func putFrame(pg core.Page) {}

func (s *frameStore) recycle(pg core.Page) { putFrame(pg) }

// engine holds the store's recycle hook, like core.Env.Recycle.
type engine struct {
	Recycle func(core.Page)
}

// readFrame decodes into a frame and recycles the frame on failure. The
// frame is not the encoded buffer, so discarding aliasBytes is clean.
func (s *frameStore) readFrame(buf []byte) (core.Page, error) {
	frame, _ := s.frames.Get().(core.Page)
	pg, _, _, err := pagecodec.DecodePage(frame, buf)
	if err != nil {
		putFrame(frame)
		return nil, err
	}
	return pg, nil
}

// firstKeyAfterRecycle reads a page it has already handed back.
func (s *frameStore) firstKeyAfterRecycle(pg core.Page) uint64 {
	s.recycle(pg)
	return pg[0].Key // want `buffer pg used after being returned to the pool`
}

// hookThenUse releases a page through the engine hook and keeps reading it.
func (e *engine) hookThenUse(pg core.Page) int {
	e.Recycle(pg)
	return len(pg) // want `buffer pg used after being returned to the pool`
}

// putFrameThenUse returns a frame to the pool and keeps writing to it.
func putFrameThenUse(pg core.Page) {
	putFrame(pg)
	pg[0].Key = 1 // want `buffer pg used after being returned to the pool`
}

// nextPage recycles the consumed page and moves on to a fresh one: the use
// after the reassignment refers to the new page. Clean.
func (s *frameStore) nextPage(pg core.Page, next func() core.Page) uint64 {
	s.recycle(pg)
	pg = next()
	return pg[0].Key
}
