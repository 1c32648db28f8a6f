// Streaming: validate a byte stream that arrives in chunks — and even
// out of order — without buffering it. The carried state between chunks
// is a single |D|-sized mapping, a direct use of the SFA's associative
// composition (Lemma 1 / Theorem 3).
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/textgen"
	"repro/sfa"
)

func main() {
	const pattern = "([0-4]{5}[5-9]{5})*"
	re, err := sfa.Compile(pattern, sfa.WithThreads(2))
	if err != nil {
		log.Fatal(err)
	}

	// 1. Feed a 32 MiB "file" through io.Copy in 64 KiB blocks.
	data := textgen.RnText(5, 32<<20, 3)
	stream, err := re.NewStream()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := io.CopyBuffer(writerOnly{stream}, bytes.NewReader(data), make([]byte, 64<<10)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d MiB in %v → accepted=%v (state carried: one mapping of %d entries)\n",
		stream.Bytes()>>20, time.Since(start), stream.Accepted(), re.Sizes().DFATotal)
	want := re.Match(data)
	if stream.Accepted() != want {
		log.Fatalf("streamed verdict %v, one-shot Match %v", stream.Accepted(), want)
	}

	// 2. Out-of-order processing: split the input into four segments,
	//    scan them in scrambled order on separate streams, then compose
	//    the mappings in the *original* order.
	quarter := len(data) / 4
	segments := [][]byte{
		data[:quarter], data[quarter : 2*quarter],
		data[2*quarter : 3*quarter], data[3*quarter:],
	}
	streams := make([]*sfa.Stream, 4)
	for _, i := range []int{2, 0, 3, 1} { // scan order ≠ input order
		s, err := re.NewStream()
		if err != nil {
			log.Fatal(err)
		}
		s.Write(segments[i])
		streams[i] = s
	}
	total := streams[0]
	for _, s := range streams[1:] {
		if err := total.Compose(s); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("out-of-order segments composed → accepted=%v (%d bytes)\n",
		total.Accepted(), total.Bytes())
	if total.Accepted() != want {
		log.Fatalf("composed verdict %v, one-shot Match %v", total.Accepted(), want)
	}

	// 3. A corrupted chunk flips the verdict, wherever it lands.
	bad, _ := re.NewStream()
	bad.Write(data[:1<<20])
	bad.Write([]byte("not digits"))
	bad.Write(data[1<<20:])
	fmt.Printf("with a corrupted middle chunk → accepted=%v\n", bad.Accepted())
	if bad.Accepted() {
		log.Fatal("the corrupted stream was accepted")
	}
}

// writerOnly hides Stream's non-Writer methods from io.CopyBuffer so it
// cannot shortcut through ReadFrom.
type writerOnly struct{ io.Writer }
