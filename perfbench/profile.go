package main

// CPU-profile attribution for the traced run: the runtime/pprof profile is
// decoded with a minimal protobuf reader (the standard library has no pprof
// parser) and each sample is charged to the crypto, codec and runtime
// packages the per-layer report names.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// profileShares returns the cpu.*_share metrics of a gzipped pprof CPU
// profile. ed25519, sha256 and bigint are flat: the sample's leaf function
// is in that package. hmac, gc and syscall are by stack: HMAC's own frames
// are thin wrappers over SHA-256, and GC and system-call work is reached
// through runtime and syscall frames of several packages.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		if len(stack) == 0 {
			continue
		}
		total += float64(s.count)
		leaf := pkgOf(stack[0])
		has := func(match func(pkg, fn string) bool) bool {
			for _, fn := range stack {
				if match(pkgOf(fn), fn) {
					return true
				}
			}
			return false
		}
		hmac := has(func(pkg, _ string) bool { return strings.HasSuffix(pkg, "/hmac") })
		switch {
		case strings.Contains(leaf, "ed25519") || strings.Contains(leaf, "edwards25519"):
			counts["cpu.ed25519_share"] += float64(s.count)
		case strings.HasSuffix(leaf, "/sha256") && !hmac:
			counts["cpu.sha256_share"] += float64(s.count)
		case leaf == "math/big" || strings.HasSuffix(leaf, "/bigmod"):
			counts["cpu.bigint_share"] += float64(s.count)
		}
		if hmac {
			counts["cpu.hmac_share"] += float64(s.count)
		}
		if has(func(_, fn string) bool {
			return fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" ||
				fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
		}) {
			counts["cpu.gc_share"] += float64(s.count)
		}
		if has(func(pkg, _ string) bool { return pkg == "syscall" || pkg == "internal/runtime/syscall" }) {
			counts["cpu.syscall_share"] += float64(s.count)
		}
	}
	out := make(map[string]float64)
	for _, name := range []string{"cpu.ed25519_share", "cpu.sha256_share", "cpu.bigint_share", "cpu.hmac_share", "cpu.gc_share", "cpu.syscall_share"} {
		out[name] = ratio(counts[name], total)
	}
	return out, nil
}

// pkgOf returns the import path of a fully qualified function name such as
// "crypto/internal/fips140/sha256.(*Digest).Write".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function ids, innermost first
	funcName map[uint64]int64    // function → string-table index
	strings  []string
}

var errProto = errors.New("malformed profile")

// protoReader walks protobuf wire-format fields.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, wire type, varint value (types
// 0, 1 and 5) or payload (type 2).
func (r *protoReader) next() (field int, wt int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if wt == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = errProto
	}
	return field, wt, v, payload, err
}

// uints reads a repeated uint64 field in either packed or unpacked form.
func uints(wt int, v uint64, payload []byte, dst []uint64) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{payload}
	for len(pr.b) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := protoReader{b}
	for len(r.b) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			sr := protoReader{payload}
			for len(sr.b) > 0 {
				f, wt, v, pl, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(wt, v, pl, s.locs)
				case 2:
					values, err = uints(wt, v, pl, values)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := protoReader{payload}
			for len(lr.b) > 0 {
				f, _, v, pl, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					ln := protoReader{pl}
					for len(ln.b) > 0 {
						lf, _, lv, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			fr := protoReader{payload}
			for len(fr.b) > 0 {
				f, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
