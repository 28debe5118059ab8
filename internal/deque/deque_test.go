package deque

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrderAndIndexing(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushBack(i)
	}
	for i := 0; i < 4; i++ {
		if v := d.PopFront(); v != i {
			t.Fatalf("PopFront = %d, want %d", v, i)
		}
	}
	if d.Len() != 6 || *d.At(0) != 4 || *d.At(5) != 9 {
		t.Fatalf("len %d, At(0)=%d, At(5)=%d", d.Len(), *d.At(0), *d.At(5))
	}
	d.TruncateBack(2)
	if d.Len() != 2 || *d.At(1) != 5 {
		t.Fatalf("after TruncateBack(2): len %d", d.Len())
	}
	d.Clear()
	if d.Len() != 0 {
		t.Fatalf("after Clear: len %d", d.Len())
	}
}

// A burst grows the buffer; draining it hands the memory back.
func TestMemoryFollowsLength(t *testing.T) {
	var d Deque[[64]byte]
	for i := 0; i < 10000; i++ {
		d.PushBack([64]byte{})
	}
	if d.Cap() < 10000 {
		t.Fatalf("cap %d below burst", d.Cap())
	}
	for d.Len() > 0 {
		d.PopFront()
	}
	if d.Cap() > keepCap {
		t.Fatalf("drained deque still holds cap %d", d.Cap())
	}
}

// A steady stream through a short queue reuses its buffer: no growth
// past the live length, whatever the number of elements passed through.
func TestSteadyStreamReusesBuffer(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100000; i++ {
		d.PushBack(i)
		if d.Len() > 5 {
			d.PopFront()
		}
	}
	if d.Cap() > keepCap {
		t.Fatalf("cap %d for a 5-element stream", d.Cap())
	}
	if *d.At(0) != 100000-5 {
		t.Fatalf("oldest = %d", *d.At(0))
	}
}

// Property: any sequence of operations behaves like a plain slice model.
func TestMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var d Deque[int]
		var model []int
		next := 0
		for _, op := range ops {
			switch {
			case op < 150:
				d.PushBack(next)
				model = append(model, next)
				next++
			case op < 240 && len(model) > 0:
				if d.PopFront() != model[0] {
					return false
				}
				model = model[1:]
			case len(model) > 0:
				n := int(op) % len(model)
				d.TruncateBack(n)
				model = model[:n]
			}
			if d.Len() != len(model) {
				return false
			}
			for i := range model {
				if *d.At(i) != model[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
