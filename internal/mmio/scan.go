package mmio

// The entry section of a Matrix Market file is parsed in blocks: scan
// reads the input in blocks cut after their last '\n', workers parse
// the blocks into per-block index and value arrays, and the assemble
// functions build the CSR arrays from those in file order.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// blockSize is the read unit of the entry parser. Blocks start at
// firstBlock bytes and double up to blockSize, so a small input gets
// small buffers and a large one several blocks per worker.
const (
	blockSize  = 4 << 20
	firstBlock = 64 << 10
)

// chunk is one block of entry lines and what a worker parsed from it.
type chunk struct {
	data       []byte    // whole lines; at the end of input the last may lack its '\n'
	rows, cols []int32   // 0-based coordinates; nil for array files
	vals       []float64 // entry values; nil for pattern files
	bad        string    // the first malformed entry, "" if none
	parsed     bool      // read and written only under scan's mutex
}

// entries returns how many entries were parsed before c.bad.
func (c *chunk) entries() int { return max(len(c.rows), len(c.vals)) }

// scan reads r in blocks, each cut after its last '\n', and runs parse
// on them on GOMAXPROCS workers. It stops reading at the end of the
// input, or once the blocks parsed so far, in file order, hold want
// entries or end at a malformed one. It returns the blocks in file
// order and the read error that ended the input: io.EOF at its end,
// nil after an early stop.
func scan(r io.Reader, block, want int, parse func(*chunk)) ([]*chunk, error) {
	workers := runtime.GOMAXPROCS(0)
	var (
		mu     sync.Mutex
		chunks []*chunk
		done   int // chunks[:done] are parsed
		have   int // entries in chunks[:done]
		stop   = want <= 0
	)
	jobs := make(chan *chunk)
	// Two buffers per worker let the next blocks be read while the
	// workers parse. Every buffer ever allocated fits in the channel,
	// so handing one back never blocks.
	free := make(chan []byte, 2*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for c := range jobs {
				parse(c)
				free <- c.data[:0]
				c.data = nil
				mu.Lock()
				c.parsed = true
				for done < len(chunks) && chunks[done].parsed {
					have += chunks[done].entries()
					stop = stop || have >= want || chunks[done].bad != ""
					done++
				}
				mu.Unlock()
			}
		}()
	}

	var (
		err   error
		carry []byte // the partial line after the last block's final '\n'
		bufs  int    // buffers allocated so far
	)
	for size := min(block, firstBlock); ; size = min(2*size, block) {
		mu.Lock()
		stopped := stop
		mu.Unlock()
		if stopped {
			break
		}
		var buf []byte
		select {
		case buf = <-free:
		default:
			if bufs < cap(free) {
				bufs++ // fill allocates it
			} else {
				buf = <-free
			}
		}
		lines, rest, rerr := fill(r, buf, carry, size)
		carry = append(carry[:0], rest...)
		if len(lines) > 0 {
			c := &chunk{data: lines}
			mu.Lock()
			chunks = append(chunks, c)
			mu.Unlock()
			jobs <- c
		} else {
			free <- lines
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	close(jobs)
	wg.Wait()
	return chunks, err
}

// tally counts the entries parsed in chunks, up to want. When a
// malformed entry comes before the want-th, it returns that entry's
// 0-based number and description instead.
func tally(chunks []*chunk, want int) (got int, bad string) {
	for _, c := range chunks {
		n := c.entries()
		if c.bad != "" && got+n < want {
			return got + n, c.bad
		}
		got += n
	}
	return min(got, want), ""
}

// fill reads the next block into buf: the carried partial line, then
// size more bytes, extended until a '\n' arrives or the input ends. It
// returns the block's whole lines (everything, at the end of the
// input), the partial line after them, and the read error that ended
// the input.
func fill(r io.Reader, buf, carry []byte, size int) (lines, rest []byte, err error) {
	buf = append(buf[:0], carry...)
	for {
		start := len(buf)
		buf = slices.Grow(buf, size)
		n, err := io.ReadFull(r, buf[start:start+size])
		buf = buf[:start+n]
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		if err != nil {
			return buf, nil, err
		}
		if i := bytes.LastIndexByte(buf[start:], '\n'); i >= 0 {
			return buf[:start+i+1], buf[start+i+1:], nil
		}
	}
}

// lineParser parses entry lines into a chunk. Its fast path takes
// all-ASCII lines with plain-digit indices that hold a valid entry;
// every other line — a non-ASCII byte, a signed or oversized index, a
// malformed entry — takes the general path, which splits and converts
// exactly as strings.Fields, strconv.Atoi and strconv.ParseFloat do.
// Both paths therefore accept the same lines, and a malformed line is
// described the same way whatever block it lands in.
type lineParser struct {
	rows, cols int  // coordinate bounds
	pattern    bool // coordinate entries carry no value
	array      bool // lines hold one value each and no indices
}

func (p *lineParser) parse(c *chunk) {
	data := c.data
	// Preallocate what the block can hold: no more entries than lines,
	// nor than its bytes allow at the shortest entry line ("1 1 1",
	// "1 1" or "1", each with its '\n').
	minLine := 6
	switch {
	case p.array:
		minLine = 2
	case p.pattern:
		minLine = 4
	}
	n := min(bytes.Count(data, []byte{'\n'})+1, (len(data)+1)/minLine)
	if !p.array {
		c.rows, c.cols = make([]int32, 0, n), make([]int32, 0, n)
	}
	if !p.pattern {
		c.vals = make([]float64, 0, n)
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if !p.fast(c, line) {
			if c.bad = p.general(c, string(line)); c.bad != "" {
				return
			}
		}
	}
}

// fast appends the entry on line, or skips a blank or comment line, and
// reports true; it reports false, having changed nothing, when the line
// needs the general path.
func (p *lineParser) fast(c *chunk, line []byte) bool {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '%' {
		return true
	}
	if p.array {
		v, ok := value(line, i)
		if !ok {
			return false
		}
		c.vals = append(c.vals, v)
		return true
	}
	row, i, ok := index(line, i)
	if !ok || row < 1 || row > p.rows {
		return false
	}
	col, i, ok := index(line, skipSpace(line, i))
	if !ok || col < 1 || col > p.cols {
		return false
	}
	if !p.pattern {
		v, ok := value(line, i)
		if !ok {
			return false
		}
		c.vals = append(c.vals, v)
	}
	c.rows = append(c.rows, int32(row-1))
	c.cols = append(c.cols, int32(col-1))
	return true
}

// value converts the value token that starts at the first non-space
// byte at or after i: by parseDecimal when it is a plain decimal, else
// as strconv.ParseFloat reads it. ok is false when the token is
// missing, holds a non-ASCII byte or is not a number.
func value(line []byte, i int) (float64, bool) {
	i = skipSpace(line, i)
	if v, _, ok := parseDecimal(line, i); ok {
		return v, true
	}
	f, _, ok := field(line, i)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(f), 64)
	return v, err == nil
}

// general parses one line as the line-at-a-time parser did: it appends
// the line's entry, if any, and returns the description of a malformed
// one.
func (p *lineParser) general(c *chunk, line string) string {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '%' {
		return ""
	}
	fields := strings.Fields(line)
	if p.array {
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Sprintf("bad value %q", line)
		}
		c.vals = append(c.vals, v)
		return ""
	}
	want := 3
	if p.pattern {
		want = 2
	}
	if len(fields) < want {
		return fmt.Sprintf("short line %q", line)
	}
	i, err := strconv.Atoi(fields[0])
	if err != nil {
		return fmt.Sprintf("bad row %q", fields[0])
	}
	j, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Sprintf("bad col %q", fields[1])
	}
	if i < 1 || i > p.rows || j < 1 || j > p.cols {
		return fmt.Sprintf("(%d,%d) outside %dx%d", i, j, p.rows, p.cols)
	}
	if !p.pattern {
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Sprintf("bad value %q", fields[2])
		}
		c.vals = append(c.vals, v)
	}
	c.rows = append(c.rows, int32(i-1))
	c.cols = append(c.cols, int32(j-1))
	return ""
}

// Byte classes of the fast path: the ASCII spaces strings.Fields
// splits at, the non-ASCII bytes that send a line to the general path,
// and every other byte.
const (
	other = iota
	space
	nonASCII
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte(" \t\n\v\f\r") {
		c[b] = space
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = nonASCII
	}
	return c
}()

func skipSpace(line []byte, i int) int {
	for i < len(line) && byteClass[line[i]] == space {
		i++
	}
	return i
}

// field returns the token that starts at the first non-space byte at
// or after i, and the offset just past it. ok is false for an empty
// token and for one holding a non-ASCII byte, which may be a Unicode
// space strings.Fields would split at.
func field(line []byte, i int) (tok []byte, end int, ok bool) {
	i = skipSpace(line, i)
	j := i
	for j < len(line) && byteClass[line[j]] == other {
		j++
	}
	if j == i || j < len(line) && byteClass[line[j]] == nonASCII {
		return nil, j, false
	}
	return line[i:j], j, true
}

// index parses the index token at line[i:] and returns the offset just
// past it. ok is false unless the token is 1 to 18 plain ASCII digits,
// which cannot overflow, ended by an ASCII space or the end of the
// line; strconv.Atoi takes every other token.
func index(line []byte, i int) (n, end int, ok bool) {
	j := i
	for ; j < len(line); j++ {
		d := line[j] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int(d)
	}
	if j == i || j-i > 18 || j < len(line) && byteClass[line[j]] != space {
		return 0, j, false
	}
	return n, j, true
}

// assembleCoordinate builds CSR from the first nnz parsed entries with
// one counting pass by row, placing each off-diagonal entry's mirror
// (negated for skew-symmetric) right after it, and reports whether an
// entry value is NaN. A row whose columns are not strictly increasing
// is sorted and its duplicates summed in sorted order; matrix.SortRow
// over the same per-row sequence the COO builder produced keeps those
// sums bit-identical to the line-at-a-time parser's.
func assembleCoordinate(chunks []*chunk, nnz, rows, cols int, symmetry string) (*matrix.CSR, bool) {
	mirror := symmetry != "general"
	negate := symmetry == "skew-symmetric"
	ptr := make([]int64, rows+1)
	left := nnz
	for _, c := range chunks {
		n := min(c.entries(), left)
		left -= n
		c.rows, c.cols = c.rows[:n], c.cols[:n]
		if c.vals != nil {
			c.vals = c.vals[:n]
		}
		for k, r := range c.rows {
			ptr[r+1]++
			if mirror && r != c.cols[k] {
				ptr[c.cols[k]+1]++
			}
		}
	}
	for i := range rows {
		ptr[i+1] += ptr[i]
	}
	nz := ptr[rows]
	colInd, val := make([]int32, nz), make([]float64, nz)
	next := slices.Clone(ptr[:rows])
	sawNaN := false
	for _, c := range chunks {
		for k, r := range c.rows {
			col, v := c.cols[k], 1.0
			if c.vals != nil {
				v = c.vals[k]
				sawNaN = sawNaN || v != v
			}
			at := next[r]
			next[r]++
			colInd[at], val[at] = col, v
			if mirror && r != col {
				if negate {
					v = -v
				}
				at = next[col]
				next[col]++
				colInd[at], val[at] = r, v
			}
		}
	}

	// Compact in place: w is the write cursor, [lo, hi) the row as
	// scattered.
	w, lo := int64(0), int64(0)
	for i := range rows {
		hi := ptr[i+1]
		cs, vs := colInd[lo:hi], val[lo:hi]
		if increasing(cs) {
			if w < lo {
				copy(colInd[w:], cs)
				copy(val[w:], vs)
			}
			w += hi - lo
		} else {
			matrix.SortRow(cs, vs)
			start := w
			for k := range cs {
				if w > start && colInd[w-1] == cs[k] {
					val[w-1] += vs[k]
					continue
				}
				colInd[w], val[w] = cs[k], vs[k]
				w++
			}
		}
		ptr[i+1] = w
		lo = hi
	}
	if w < nz {
		colInd, val = slices.Clone(colInd[:w]), slices.Clone(val[:w])
	}
	return &matrix.CSR{NRows: rows, NCols: cols, RowPtr: ptr, ColInd: colInd, Val: val}, sawNaN
}

func increasing(cs []int32) bool {
	for k := 1; k < len(cs); k++ {
		if cs[k-1] >= cs[k] {
			return false
		}
	}
	return true
}

// assembleArray builds CSR from the first rows*cols parsed values of a
// column-major array file, keeping the nonzeros. Columns arrive in
// increasing order, so every row is sorted as placed.
func assembleArray(chunks []*chunk, rows, cols int) *matrix.CSR {
	ptr := make([]int64, rows+1)
	left, i := rows*cols, 0
	for _, c := range chunks {
		c.vals = c.vals[:min(len(c.vals), left)]
		left -= len(c.vals)
		for _, v := range c.vals {
			if v != 0 {
				ptr[i+1]++
			}
			if i++; i == rows {
				i = 0
			}
		}
	}
	for r := range rows {
		ptr[r+1] += ptr[r]
	}
	colInd, val := make([]int32, ptr[rows]), make([]float64, ptr[rows])
	next := slices.Clone(ptr[:rows])
	i, j := 0, int32(0)
	for _, c := range chunks {
		for _, v := range c.vals {
			if v != 0 {
				at := next[i]
				next[i]++
				colInd[at], val[at] = j, v
			}
			if i++; i == rows {
				i, j = 0, j+1
			}
		}
	}
	return &matrix.CSR{NRows: rows, NCols: cols, RowPtr: ptr, ColInd: colInd, Val: val}
}
