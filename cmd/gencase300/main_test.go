package main

import (
	"bytes"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// ratingsMarker starts the ratings block, the one part of case300.go that
// gencase300 does not produce: calibcase regenerates those values, and
// cmd/calibcase's TestReproducesEmbeddedRatings300 checks them.
const ratingsMarker = "// caseLimit300 holds the calibrated branch ratings"

// TestReproducesEmbeddedCase300 checks the provenance of the ieee300 case:
// gencase300's output, gofmt-ed, is the embedded case file byte for byte
// up to the ratings block, and both declare a ratings array of the same
// length.
func TestReproducesEmbeddedCase300(t *testing.T) {
	got, err := format.Source(captureStdout(t, main))
	if err != nil {
		t.Fatalf("generated file does not parse: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "grid", "cases", "case300.go"))
	if err != nil {
		t.Fatal(err)
	}
	gi, wi := bytes.Index(got, []byte(ratingsMarker)), bytes.Index(want, []byte(ratingsMarker))
	if gi < 0 || wi < 0 {
		t.Fatalf("ratings block not found (generated at %d, embedded at %d)", gi, wi)
	}
	if !bytes.Equal(got[:gi], want[:wi]) {
		gl, wl := bytes.Split(got[:gi], []byte("\n")), bytes.Split(want[:wi], []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\ngenerated: %s\nembedded:  %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("generated %d lines before the ratings block, embedded %d", len(gl), len(wl))
	}
	decl := []byte("var caseLimit300 = [411]float64{")
	if !bytes.Contains(got[gi:], decl) || !bytes.Contains(want[wi:], decl) {
		t.Errorf("generated and embedded files do not both declare %s", decl)
	}
}

// captureStdout runs f and returns what it wrote to os.Stdout.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-out
}
