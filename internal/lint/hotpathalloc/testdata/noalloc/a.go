package a

import "fmt"

type buf struct {
	data []byte
	n    int
}

// hot shows the allowed steady-state shapes: self-append reuse,
// reslicing, value struct literals, pointer arguments to interface
// parameters, type assertions.
//
//sfa:noalloc
func hot(b *buf, p []byte) int {
	b.data = append(b.data, p...)
	b.data = append(b.data[:0], p...)
	n := 0
	for _, c := range p {
		n += int(c)
	}
	v := buf{n: n} // value literal: stack
	sink(&v)
	return v.n
}

// appendHits is the caller-owned-buffer API shape prefilter uses.
//
//sfa:noalloc
func appendHits(dst []int, p []byte) []int {
	for range p {
		dst = append(dst, 1)
	}
	return append(dst, 0)
}

//sfa:noalloc
func allocates(p []byte) []byte {
	s := make([]byte, 8) // want `make allocates`
	q := new(buf)        // want `new allocates`
	q.data = s
	t := []byte{1, 2}  // want `slice literal allocates`
	m := map[int]int{} // want `map literal allocates`
	m[0] = 1
	u := &buf{}              // want `escapes to the heap`
	r := append(s[:4], p...) // want `append may grow`
	_ = u
	_ = t
	return r
}

//sfa:noalloc
func converts(p []byte, s string) int {
	a := string(p)      // want `conversion \[\]byte → string allocates`
	b := []byte(s)      // want `conversion string → \[\]byte allocates`
	c := a + s          // want `string concatenation allocates`
	fmt.Println(len(c)) // want `fmt\.Println allocates` `int boxed into interface argument allocates`
	return len(b)
}

//sfa:noalloc
func boxes(n int64, b *buf) {
	sink(n) // want `int64 boxed into interface argument allocates`
	sink(b)
	var i any = n // plain assignment boxing is out of scope: vet's
	_ = i         // escape analysis would be needed to rule on it
}

//sfa:noalloc
func spawns(p []byte) {
	go hot(nil, p) // want `go statement allocates a goroutine`
}

//sfa:noalloc
func closes(p []byte) func() int {
	n := 0
	f := func() int { // want `closure captures n by reference and allocates`
		n++
		return n
	}
	g := func(x int) int { return x + 1 }   // capture-free: static closure
	return func() int { return f() + g(1) } // want `closure captures f by reference and allocates`
}

//sfa:noalloc
func iterates(m map[string]int) int {
	t := 0
	for _, v := range m { // want `map range needs the runtime's randomized iterator`
		t += v
	}
	return t
}

// waived documents a measured-amortized exception.
//
//sfa:noalloc
func waived(p []byte, dst []byte) []byte {
	s := make([]byte, 0, len(p)) //sfa:allocok one-time warmup, amortized by reuse in the pool
	//sfa:allocok cold branch: only taken on reconfiguration
	t := make([]byte, 1)
	s = append(s, t...)
	dst = append(dst, s...)
	return append(dst, p...)
}

// unannotated functions are never checked.
func cold() []byte {
	return make([]byte, 64)
}

func sink(any) {}

// compares and resets exercise the recognized allocation-free contexts:
// comparison/map-key conversions are elided by gc, and append into an
// owned buffer resliced to zero is the reset-reuse idiom.
//
//sfa:noalloc
func compares(p []byte, m map[string]int) int {
	if string(p) == "key" {
		return m[string(p)]
	}
	return 0
}

//sfa:noalloc
func resets(b *buf, p []byte) []byte {
	out := append(b.data[:0], p...)
	return out
}
