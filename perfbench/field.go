package main

import (
	"bytes"
	"fmt"

	"pfpl"
)

// field is one generated input with its serial-reference stream and a
// reusable decode buffer, as a real caller would keep.
type field struct {
	spec
	v32   []float32
	v64   []float64
	ref   []byte // pfpl.Serial() stream, computed at set-up
	dst32 []float32
	dst64 []float64
}

func newField(s spec, r *rng) *field {
	f := &field{spec: s}
	v := genField(s.shape, s.n, r)
	if s.f64 {
		f.v64 = v
	} else {
		f.v32 = to32(v)
	}
	return f
}

func (f *field) opts(dev pfpl.Device) pfpl.Options {
	return pfpl.Options{Mode: f.mode, Bound: f.bound, Device: dev}
}

func (f *field) compress(dev pfpl.Device) ([]byte, error) {
	if f.f64 {
		return pfpl.Compress64(f.v64, f.opts(dev))
	}
	return pfpl.Compress32(f.v32, f.opts(dev))
}

// decompress decodes buf into the field's reused buffer.
func (f *field) decompress(buf []byte, dev pfpl.Device) error {
	var err error
	if f.f64 {
		f.dst64, err = pfpl.Decompress64(buf, f.dst64, f.opts(dev))
	} else {
		f.dst32, err = pfpl.Decompress32(buf, f.dst32, f.opts(dev))
	}
	return err
}

func (f *field) checkDecoded() error {
	if f.f64 {
		return checkBound(f.v64, f.dst64, f.mode, f.bound)
	}
	return checkBound(f.v32, f.dst32, f.mode, f.bound)
}

// setReference computes the serial-device stream every other executor
// must reproduce byte for byte, and checks that it decodes within bound.
func (f *field) setReference() error {
	ref, err := f.compress(pfpl.Serial())
	if err != nil {
		return fmt.Errorf("%v reference: %w", f.shape, err)
	}
	f.ref = ref
	if err := f.decompress(ref, pfpl.Serial()); err != nil {
		return fmt.Errorf("%v reference decode: %w", f.shape, err)
	}
	if err := f.checkDecoded(); err != nil {
		return fmt.Errorf("%v reference: %w", f.shape, err)
	}
	return nil
}

func (f *field) checkStream(comp []byte) error {
	if !bytes.Equal(comp, f.ref) {
		return fmt.Errorf("%v field (%d values): stream differs from the pfpl.Serial() reference", f.shape, f.n)
	}
	return nil
}

func (f *field) String() string {
	p := "f32"
	if f.f64 {
		p = "f64"
	}
	return fmt.Sprintf("%s %v %d values %v %g", p, f.shape, f.n, f.mode, f.bound)
}
