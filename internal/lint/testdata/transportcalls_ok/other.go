package comm

// queue is comm's own: its Send is no transport call.
type queue struct{ items []int }

func (q *queue) Send(v int) { q.items = append(q.items, v) }

func fill(q *queue) {
	q.Send(1)
}
