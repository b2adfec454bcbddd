// Package scratch provides the reusable-slice idiom the hot paths share:
// a loop produces into a buffer, consumes it fully, and wants the
// capacity — but not the contents — kept for the next iteration. Using
// one helper keeps the three easy-to-miss details (empty on take, retain
// the grown array, clear stale elements) single-sourced instead of
// hand-copied at every site.
package scratch

// Buf holds a reusable slice. The zero value is ready to use. Not safe
// for concurrent use; each producing loop owns its own Buf.
type Buf[T any] struct{ buf []T }

// Take returns the buffer emptied, ready for appending. The caller must
// pass the grown result back through Done before the next Take.
func (b *Buf[T]) Take() []T { return b.buf[:0] }

// Done records used — the slice grown from Take's return value — once
// the caller has fully consumed it: the larger backing array is retained
// for the next Take, and every element is cleared so a burst iteration's
// contents (envelope message pointers, payloads) are not pinned in
// memory until the next equally large burst.
func (b *Buf[T]) Done(used []T) {
	if cap(used) > cap(b.buf) {
		b.buf = used
	}
	clear(used)
}
