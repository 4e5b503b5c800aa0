package netsim

import "container/heap"

// eventHeap is the original container/heap event queue, retained as the
// reference implementation: the differential tests in calqueue_test.go
// prove the calendar queue pops events in exactly this order on randomized
// schedules, and the queue benchmarks measure the replacement against it.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	// Zero the vacated slot: without this the backing array pins every
	// popped event's run closure (and everything it captures) for the life
	// of the simulation.
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }
