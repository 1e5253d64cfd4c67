package main

// The POST /v1/mul/{name} codec. A multiply's request and response are
// long arrays of float64, and decoding them through encoding/json's
// reflection costs more than the SpMV itself on vectors of a few
// thousand elements. This file scans the one body shape clients send,
// {"x":[...]}, byte by byte and writes {"y":[...]} with strconv, on
// buffers pooled across requests. Anything the scanner does not take
// falls back to encoding/json, so accepted input, values and error text
// are encoding/json's; the fuzz target FuzzMulCodec holds both halves to
// that.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// A mul body may hold mulBytesPerElem bytes per element of x plus
// mulBodySlack bytes, so a request's memory is bounded by the matrix it
// names. The longest float64 in shortest form, -2.2250738585072014e-308,
// is 24 bytes; 64 per element leaves room for the comma and for
// indentation of one element per line. The slack covers the key, the
// braces and whitespace around them.
const (
	mulBytesPerElem = 64
	mulBodySlack    = 4096
)

// mulBodyLimit is the largest mul body accepted for a matrix with cols
// columns.
func mulBodyLimit(cols int) int64 {
	return int64(cols)*mulBytesPerElem + mulBodySlack
}

// mulScratch is one request's reusable buffers: the body as read, the
// decoded x, the product y and the encoded response.
type mulScratch struct {
	body bytes.Buffer
	x, y []float64
	out  []byte
}

var mulPool = sync.Pool{New: func() any { return new(mulScratch) }}

// readBody reads r into s.body, sized up front from the request's
// Content-Length when it is within limit.
func (s *mulScratch) readBody(r io.Reader, contentLength, limit int64) error {
	s.body.Reset()
	if contentLength > 0 && contentLength <= limit {
		s.body.Grow(int(contentLength) + bytes.MinRead)
	}
	_, err := s.body.ReadFrom(r)
	return err
}

// decodeX returns the "x" array of a mul body. The fast path decodes
// into dst's storage; any body it does not take is decoded by
// encoding/json exactly as a json.Decoder over the body would.
func decodeX(body []byte, dst []float64) ([]float64, error) {
	if x, ok := scanX(body, dst[:0]); ok {
		return x, nil
	}
	var req struct {
		X []float64 `json:"x"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return req.X, nil
}

// scanX appends to x the elements of a body that is exactly
// {"x":[n,...]}, with JSON whitespace between tokens and after the
// closing brace, where every n is a JSON number in float64 range. It
// reports false on any other body. Each number is converted by
// strconv.ParseFloat, as encoding/json converts it, so the values are
// bit for bit the same.
func scanX(b []byte, x []float64) ([]float64, bool) {
	i := skipWS(b, 0)
	for _, tok := range [...]string{`{`, `"x"`, `:`, `[`} {
		if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
			return nil, false
		}
		i = skipWS(b, i+len(tok))
	}
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			end := numberEnd(b, i)
			if end < 0 {
				return nil, false
			}
			v, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return nil, false
			}
			x = append(x, v)
			i = skipWS(b, end)
			if i == len(b) {
				return nil, false
			}
			c := b[i]
			i = skipWS(b, i+1)
			if c == ']' {
				break
			}
			if c != ',' {
				return nil, false
			}
		}
	}
	i = skipWS(b, i)
	if i == len(b) || b[i] != '}' || skipWS(b, i+1) != len(b) {
		return nil, false
	}
	return x, true
}

// skipWS returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the end of the JSON number
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? starting at b[i], or -1 if
// none starts there.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendY appends {"y":[...]} and a newline to dst, byte for byte what
// json.Marshal(map[string]any{"y": y}) and a '\n' would be. It reports
// false, with dst's contents unspecified, when y holds a value with no
// JSON form (±Inf or NaN).
func appendY(dst []byte, y []float64) ([]byte, bool) {
	dst = append(dst, `{"y":[`...)
	for i, v := range y {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, "]}\n"...), true
}

// appendFloat formats a finite v as encoding/json does: like ES6,
// exponent form only below 1e-6 or from 1e21 in magnitude, with a
// two-digit negative exponent cut to one digit (e-07 becomes e-7).
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
