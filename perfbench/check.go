package main

import (
	"bytes"
	"fmt"
	"net/http"

	"parbitonic/element"
	"parbitonic/internal/verify"
)

// checkSorted reports whether out is ascending by key and holds the
// same multiset of elements as the input fingerprinted by want. The
// fingerprint folds KV64 payloads too, so a payload detached from its
// key fails here even when the keys are in order.
func checkSorted[E element.Elem](out []E, want verify.Checksum) error {
	for i := 1; i < len(out); i++ {
		if element.Less(out[i], out[i-1]) {
			return fmt.Errorf("output not ascending at index %d", i)
		}
	}
	if got := verify.Sum(out); got != want {
		return fmt.Errorf("output multiset differs from input: checksum %+v, want %+v", got, want)
	}
	return nil
}

// frameHeaderLen is the size of the PBSF v1 binary frame header:
// "PBSF", version 1, element type byte, two reserved zero bytes.
const frameHeaderLen = 8

// frameHeader renders the v1 header for element type E.
func frameHeader[E element.Elem]() []byte {
	return []byte{'P', 'B', 'S', 'F', 1, byte(element.TypeOf[E]()), 0, 0}
}

// encodeFrame renders keys as a PBSF v1 binary frame.
func encodeFrame[E element.Elem](keys []E) []byte {
	w := element.Width[E]()
	b := make([]byte, frameHeaderLen+len(keys)*w)
	copy(b, frameHeader[E]())
	for i, k := range keys {
		element.Put(b[frameHeaderLen+i*w:], k)
	}
	return b
}

// checkResponse reports whether a /sort reply is a 200 carrying a PBSF
// frame of element type E with exactly n elements, ascending, whose
// multiset matches the request's fingerprint want.
func checkResponse[E element.Elem](status int, body []byte, n int, want verify.Checksum) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	w := element.Width[E]()
	if len(body) != frameHeaderLen+n*w {
		return fmt.Errorf("response is %d bytes, want %d", len(body), frameHeaderLen+n*w)
	}
	if !bytes.Equal(body[:frameHeaderLen], frameHeader[E]()) {
		return fmt.Errorf("response header %x, want %x", body[:frameHeaderLen], frameHeader[E]())
	}
	out := make([]E, n)
	for i := range out {
		out[i] = element.Get[E](body[frameHeaderLen+i*w:])
	}
	return checkSorted(out, want)
}
