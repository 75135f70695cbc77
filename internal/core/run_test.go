package core

import "testing"

func TestRunInfoCursorBasics(t *testing.T) {
	r := &runInfo{id: 1, pages: 2, tuples: 5}
	r.bufs = []Page{{{Key: 1}, {Key: 2}, {Key: 3}}}
	if !r.refill() || r.ws.Key != 1 {
		t.Fatalf("refill: %+v", r.ws)
	}
	if r.pos != 1 || r.page != 0 {
		t.Fatalf("pos=%d page=%d", r.pos, r.page)
	}
	r.refill()
	r.refill() // consumes the page: page advances
	if r.page != 1 || r.pos != 0 || len(r.bufs) != 0 {
		t.Fatalf("after page: page=%d pos=%d bufs=%d", r.page, r.pos, len(r.bufs))
	}
	if !r.needsLoad() {
		t.Fatal("second page must need a load")
	}
	r.bufs = []Page{{{Key: 4}, {Key: 5}}}
	r.refill()
	r.refill()
	if r.refill() {
		t.Fatal("exhausted run must fail refill")
	}
	if !r.exhausted() {
		t.Fatal("run should be exhausted")
	}
}

func TestRunInfoDropPreservesPosition(t *testing.T) {
	r := &runInfo{id: 1, pages: 3}
	r.bufs = []Page{{{Key: 10}, {Key: 20}}, {{Key: 30}}}
	r.refill() // ws=10, pos=1
	wsKey := r.ws.Key
	dropped := r.drop()
	if dropped != 2 || r.loaded() != 0 {
		t.Fatalf("drop freed %d", dropped)
	}
	if !r.wsValid || r.ws.Key != wsKey {
		t.Fatal("workspace must survive a drop")
	}
	if r.page != 0 || r.pos != 1 {
		t.Fatalf("refill position lost: page=%d pos=%d", r.page, r.pos)
	}
	// Reload the same page and continue: the next record is 20.
	r.bufs = []Page{{{Key: 10}, {Key: 20}}}
	r.refill()
	if r.ws.Key != 20 {
		t.Fatalf("resumed at %d, want 20", r.ws.Key)
	}
}

func TestRunInfoRemainingPages(t *testing.T) {
	r := &runInfo{pages: 10, page: 3}
	if r.remainingPages() != 7 {
		t.Fatalf("remaining = %d", r.remainingPages())
	}
	if sumRemaining([]*runInfo{r, {pages: 5}}) != 12 {
		t.Fatal("sumRemaining")
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

func TestRecordLessTiebreak(t *testing.T) {
	a := Record{Key: 5, Payload: []byte("a")}
	b := Record{Key: 5, Payload: []byte("b")}
	if !Less(a, b) || Less(b, a) {
		t.Fatal("payload must break key ties")
	}
	if Less(a, a) {
		t.Fatal("irreflexive")
	}
	if !Less(Record{Key: 1}, Record{Key: 2}) {
		t.Fatal("key ordering")
	}
}

func TestPagesForTuples(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{0, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {64, 8, 8}, {-3, 8, 0},
	}
	for _, c := range cases {
		if got := PagesForTuples(c.n, c.r); got != c.want {
			t.Fatalf("PagesForTuples(%d,%d) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
}

func TestMergeStepNeed(t *testing.T) {
	st := &mergeStep{inputs: []*runInfo{{}, {}, {}}}
	if st.need() != 4 {
		t.Fatalf("need = %d", st.need())
	}
}
