package gameserver

import (
	"sync"

	"matrix/internal/protocol"
)

// queue is the receive queue, the one part of a server that other goroutines
// reach: a live host's connection pumps put to it and its admission stage
// reads its length while the owner takes from it. The lock is held to put,
// count and take, never while a message is processed.
type queue struct {
	mu                  sync.Mutex
	max                 int                // bound on the pending messages; 0 is none
	msgs                []protocol.Message // msgs[head:] is pending; take compacts lazily
	head                int
	put, taken, dropped uint64 // messages ever accepted, taken and refused
}

func (q *queue) add(m protocol.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.max > 0 && len(q.msgs)-q.head >= q.max {
		q.dropped++
		return ErrQueueOverflow
	}
	q.msgs = append(q.msgs, m)
	q.put++
	return nil
}

// counts returns the pending length and the three counts.
func (q *queue) counts() (pending int, put, taken, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs) - q.head, q.put, q.taken, q.dropped
}

// take moves up to budget pending messages (all of them when budget <= 0),
// oldest first, onto dst.
func (q *queue) take(dst []protocol.Message, budget int) []protocol.Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.msgs) - q.head
	if budget > 0 && budget < n {
		n = budget
	}
	dst = append(dst, q.msgs[q.head:q.head+n]...)
	clear(q.msgs[q.head : q.head+n])
	q.head += n
	q.taken += uint64(n)
	// Lazy compaction reuses the array without making sustained overload
	// quadratic: survivors only slide to the front once the taken prefix
	// outweighs them (amortized O(1) per message; none for a drained queue).
	// The taken prefix is clear already: only the survivors' old slots need
	// clearing.
	if q.head > len(q.msgs)/2 {
		rest := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[q.head:])
		q.msgs, q.head = q.msgs[:rest], 0
	}
	return dst
}

// pending copies the pending messages.
func (q *queue) pending() []protocol.Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]protocol.Message(nil), q.msgs[q.head:]...)
}

// reset replaces the pending messages and the drop count. The replaced
// messages count as taken, so put-taken stays the pending length.
func (q *queue) reset(msgs []protocol.Message, dropped uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.taken += uint64(len(q.msgs) - q.head)
	q.put += uint64(len(msgs))
	q.msgs, q.head, q.dropped = msgs, 0, dropped
}
