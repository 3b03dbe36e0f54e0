package sim

import "container/heap"

// locHeap marks a slot held by heapTimeline (see the loc values in wheel.go).
const locHeap int32 = -4

// heapTimeline is the original container/heap timeline that the timing
// wheel (wheel.go) replaced. It survives only as the reference
// implementation the differential tests (timelinediff_test.go) replay
// every operation script against.
type heapTimeline struct {
	h eventHeap
}

func (t *heapTimeline) len() int { return len(t.h) }

func (t *heapTimeline) push(s *slot) {
	s.loc = locHeap
	heap.Push(&t.h, s)
}

func (t *heapTimeline) pop() *slot {
	if len(t.h) == 0 {
		return nil
	}
	s := heap.Pop(&t.h).(*slot)
	s.loc = locNone
	return s
}

func (t *heapTimeline) peek() (Time, bool) {
	if len(t.h) == 0 {
		return 0, false
	}
	return t.h[0].at, true
}

func (t *heapTimeline) remove(s *slot) {
	heap.Remove(&t.h, s.idx)
	s.loc = locNone
	s.idx = -1
}

// eventHeap orders events by (time, sequence).
type eventHeap []*slot

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*slot)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
