package model

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalProfile checks the profile decoder on hostile bytes: it
// must error or produce a structurally reloadable profile, never panic.
func FuzzUnmarshalProfile(f *testing.F) {
	sch := NewSchema("a", "b")
	p := NewProfile(7)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 2, 3, []int64{4, -5})
	_ = p.Add(sch, 2500, 1000, 2, 3, 4, []int64{1, 1})
	data := MarshalProfile(p)
	p.Unlock()
	f.Add(data)
	f.Add([]byte{0x08, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, junk []byte) {
		got, err := UnmarshalProfile(junk)
		if err != nil {
			return
		}
		// Whatever decoded must re-marshal and re-decode to the same
		// feature totals, and the encoding is a fixed point: decode →
		// marshal → decode → marshal gives identical bytes.
		got.RLock()
		first := MarshalProfile(got)
		nf := got.NumFeatures()
		got.RUnlock()
		again, err := UnmarshalProfile(first)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.NumFeatures() != nf {
			t.Fatalf("feature count drifted: %d -> %d", nf, again.NumFeatures())
		}
		if second := MarshalProfile(again); !bytes.Equal(first, second) {
			t.Fatalf("re-marshal differs:\n%x\n%x", first, second)
		}
	})
}

// FuzzUnmarshalSlice covers the slice-level decoder.
func FuzzUnmarshalSlice(f *testing.F) {
	sch := NewSchema("n")
	s := NewSlice(0, 1000)
	s.Add(sch, 10, 1, 1, 42, []int64{7})
	f.Add(MarshalSlice(s))
	f.Add([]byte{0x12, 0x00})
	f.Fuzz(func(t *testing.T, junk []byte) {
		got, err := UnmarshalSlice(junk)
		if err != nil {
			return
		}
		first := MarshalSlice(got)
		again, err := UnmarshalSlice(first)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if second := MarshalSlice(again); !bytes.Equal(first, second) {
			t.Fatalf("re-marshal differs:\n%x\n%x", first, second)
		}
	})
}
