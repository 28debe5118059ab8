// Package deque is a FIFO whose backing memory follows its length. It
// grows like a slice, reuses dead front slots before growing, and hands a
// mostly empty buffer back to the garbage collector. The raft entry
// cache and the simulated network's link queues hold it, so their memory
// tracks the work in flight instead of a configured maximum.
package deque

// keepCap is the capacity a deque may hold on to while nearly empty:
// small buffers are kept so a queue that oscillates between zero and a
// few elements does not allocate on every push.
const keepCap = 64

// Deque is a FIFO with indexed access. The zero value is empty and ready
// to use. It is not safe for concurrent use.
type Deque[T any] struct {
	buf  []T // buf[head:] holds the elements, oldest first
	head int
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return len(d.buf) - d.head }

// Cap returns the capacity of the backing buffer (memory in use).
func (d *Deque[T]) Cap() int { return cap(d.buf) }

// At returns a pointer to the i-th oldest element; i must be in
// [0, Len()).
func (d *Deque[T]) At(i int) *T { return &d.buf[d.head+i] }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if len(d.buf) == cap(d.buf) && d.head > 0 && d.head >= d.Len() {
		// At least half the buffer is dead front: slide the live part
		// down instead of growing (amortized O(1), no allocation).
		n := copy(d.buf, d.buf[d.head:])
		clear(d.buf[n:])
		d.buf = d.buf[:n]
		d.head = 0
	}
	d.buf = append(d.buf, v)
}

// PopFront removes and returns the oldest element; the deque must not be
// empty.
func (d *Deque[T]) PopFront() T {
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero // drop the reference for the collector
	d.head++
	d.shrink()
	return v
}

// TruncateBack keeps the n oldest elements and drops the rest.
func (d *Deque[T]) TruncateBack(n int) {
	clear(d.buf[d.head+n:])
	d.buf = d.buf[:d.head+n]
	d.shrink()
}

// Clear removes every element and releases a large buffer.
func (d *Deque[T]) Clear() { d.TruncateBack(0) }

// shrink restarts an empty deque at the front of its buffer, and moves
// a buffer at most a quarter full into one sized for its contents (an
// empty one is released outright).
func (d *Deque[T]) shrink() {
	n := d.Len()
	if n == 0 {
		d.buf, d.head = d.buf[:0], 0
	}
	if cap(d.buf) <= keepCap || 4*n > cap(d.buf) {
		return
	}
	var buf []T
	if n > 0 {
		buf = make([]T, n, 2*n)
		copy(buf, d.buf[d.head:])
	}
	d.buf, d.head = buf, 0
}
