package mmio

// The value fast path: a plain decimal token is converted to the
// float64 strconv.ParseFloat returns for it, without ParseFloat's
// general digit scanner. The mantissa is read exactly into a uint64,
// eight digits per step where it can be. A short mantissa with a small
// exponent converts with one exact float64 multiply or divide; any
// other converts by the Eisel–Lemire algorithm, which either returns
// the correctly rounded value or declines. Every token it declines
// takes strconv.ParseFloat.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// parseDecimal converts the token starting at line[i] when it is a
// plain decimal, [+-]?digits[.digits]?([eE][+-]?digits)? with at least
// one mantissa digit (either side of the point may be empty) and at
// most 4 exponent digits, ended by an ASCII space or the end of the
// line. v is then bit for bit what strconv.ParseFloat returns for the
// token, and end the offset just past it. ok is false for every other
// token, and for a plain decimal whose mantissa overflows a uint64 or
// whose value Eisel–Lemire cannot round with certainty (subnormals,
// overflow, near-halfway cases); the caller then takes
// strconv.ParseFloat.
func parseDecimal(line []byte, i int) (v float64, end int, ok bool) {
	j := i
	neg := false
	if j < len(line) && (line[j] == '+' || line[j] == '-') {
		neg = line[j] == '-'
		j++
	}
	start := j
	man, j, ok := decimalDigits(line, j, 0)
	if !ok {
		return 0, j, false
	}
	nd, exp10 := j-start, 0
	if j < len(line) && line[j] == '.' {
		frac := j + 1
		if man, j, ok = decimalDigits(line, frac, man); !ok {
			return 0, j, false
		}
		nd += j - frac
		exp10 = frac - j
	}
	if nd == 0 {
		return 0, j, false
	}
	if j < len(line) && (line[j] == 'e' || line[j] == 'E') {
		j++
		eneg := false
		if j < len(line) && (line[j] == '+' || line[j] == '-') {
			eneg = line[j] == '-'
			j++
		}
		start, e := j, 0
		for ; j < len(line) && j-start <= 4; j++ {
			d := line[j] - '0'
			if d > 9 {
				break
			}
			e = e*10 + int(d)
		}
		if j == start || j-start > 4 {
			return 0, j, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if j < len(line) && byteClass[line[j]] != space {
		return 0, j, false
	}
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		// Both operands are exact, so the one rounding of the
		// product or quotient is the correct one. Eisel–Lemire
		// declines many of these short values (0.5, -0.25).
		v = float64(man)
		if exp10 < 0 {
			v /= exactPow10[-exp10]
		} else {
			v *= exactPow10[exp10]
		}
		if neg {
			v = -v
		}
		return v, j, true
	}
	v, ok = eiselLemire64(man, exp10, neg)
	return v, j, ok
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// decimalDigits appends the digits at line[j:] to man and returns the
// offset just past them. ok is false when man overflows a uint64.
func decimalDigits(line []byte, j int, man uint64) (uint64, int, bool) {
	// Eight digits per step while man*1e8 + 99999999 cannot overflow.
	for len(line)-j >= 8 && man < 1e11 {
		w := binary.LittleEndian.Uint64(line[j:])
		if !eightDigits(w) {
			break
		}
		man = man*1e8 + swarValue(w)
		j += 8
	}
	for ; j < len(line); j++ {
		d := uint64(line[j] - '0')
		if d > 9 {
			break
		}
		if man >= 1e18 && man > (math.MaxUint64-d)/10 {
			return 0, j, false
		}
		man = man*10 + d
	}
	return man, j, true
}

// eightDigits reports whether all eight bytes of w, read little-endian,
// are ASCII digits: each byte's high nibble is 3, and adding 6 keeps it
// 3 only for bytes up to '9'. A byte that carries into the next has
// high nibble F and already fails.
func eightDigits(w uint64) bool {
	return (w&0xF0F0F0F0F0F0F0F0)|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// swarValue returns the value of the eight ASCII digits in w, the
// first digit in the low byte, by combining adjacent pairs, then
// pairs of pairs, then the two halves.
func swarValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // each even byte: two digits, 0..99
	const (
		mask = 0x000000FF000000FF
		mul1 = 100 + 1000000<<32
		mul2 = 1 + 10000<<32
	)
	return ((w&mask)*mul1 + ((w>>16)&mask)*mul2) >> 32
}

// The rest of this file is ported from the Go standard library's
// strconv/eisel_lemire.go, float64 only:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license, reproduced here:
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// The algorithm is described at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose section
// names the terse comments in eiselLemire64 refer to.

// eiselLemire64 returns man * 10^exp10, correctly rounded, with the
// sign of neg, or ok=false when it cannot decide the rounding.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// pow10MinExp10 and pow10MaxExp10 are the powers of ten of the first
// and last rows of pow10Table. Both bounds are inclusive.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = +347
)

// pow10Table holds the 128-bit mantissas of 10^q for q from
// pow10MinExp10 to pow10MaxExp10, rounded down, as {low, high} word
// pairs: 10^q ≈ m * 2^e with m normalized to [2^127, 2^128), the
// exponent e implied by the slope 217706/65536 ≈ log2(10) in
// eiselLemire64. For example, 1e43 = 0xE596B7B0_C643C719_6D9CCD05_D0000000
// * 2^15.
type pow10Table = [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64

// pow10 is the table once built; nil until the first conversion.
var pow10 atomic.Pointer[pow10Table]

// powersOfTen returns the table, building it with math/big on first
// use. The check is one inlined atomic load per value; a
// sync.OnceValue closure is a call per value, about 4% of a parse.
func powersOfTen() *pow10Table {
	if t := pow10.Load(); t != nil {
		return t
	}
	return buildPowersOfTen()
}

// buildPowersOfTen builds the table and publishes it. First callers
// that race may each build it; they build the same table, and the
// first one published is kept.
func buildPowersOfTen() *pow10Table {
	t := new(pow10Table)
	one, ten := big.NewInt(1), big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int) // p = 10^n
	row := func(q int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[q-pow10MinExp10] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	for n := 0; n <= -pow10MinExp10; n, p = n+1, p.Mul(p, ten) {
		if n <= pow10MaxExp10 {
			// 10^n shifted to exactly 128 bits, dropping low bits.
			if k := p.BitLen(); k <= 128 {
				m.Lsh(p, uint(128-k))
			} else {
				m.Rsh(p, uint(k-128))
			}
			row(n)
		}
		if n > 0 {
			// floor(2^k / 10^n), with k chosen so the quotient has
			// 128 bits: 10^n is not a power of two, so it lies
			// strictly between 2^(b-1) and 2^b for b its bit length.
			m.Quo(m.Lsh(one, uint(127+p.BitLen())), p)
			row(-n)
		}
	}
	pow10.CompareAndSwap(nil, t)
	return pow10.Load()
}
