package mmio

// The line-at-a-time parser Read replaced, kept as the differential
// oracle: FuzzParse and TestReadChunkBoundaries require the block
// parser to accept exactly what this accepts and to build the same
// CSR, value bits included. It reads one line per entry with
// bufio.ReadString and strings.Fields and assembles through matrix.COO.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// readReference parses a Matrix Market stream into a CSR matrix, one
// line at a time.
func readReference(r io.Reader) (*matrix.CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if h.object != "matrix" {
		return nil, fmt.Errorf("mmio: unsupported object %q", h.object)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", h.symmetry)
	}
	switch h.format {
	case "coordinate":
		return refCoordinate(br, h)
	case "array":
		if h.field == "pattern" {
			return nil, fmt.Errorf("mmio: array format cannot be pattern")
		}
		return refArray(br, h)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", h.format)
	}
}

func refCoordinate(br *bufio.Reader, h header) (*matrix.CSR, error) {
	sizeLine, err := nextDataLine(br)
	if err != nil {
		return nil, fmt.Errorf("mmio: missing size line: %w", err)
	}
	var rows, cols, nnz int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if err := checkDims(rows, cols); err != nil {
		return nil, err
	}
	if h.symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("mmio: %s matrix must be square, got %d x %d", h.symmetry, rows, cols)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mmio: negative nnz %d", nnz)
	}
	coo := matrix.NewCOO(rows, cols)
	sawNaN := false
	for k := 0; k < nnz; k++ {
		line, err := nextDataLine(br)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d/%d: %w", k+1, nnz, err)
		}
		fields := strings.Fields(line)
		want := 3
		if h.field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("mmio: entry %d: short line %q", k+1, line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad row %q", k+1, fields[0])
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad col %q", k+1, fields[1])
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry %d: (%d,%d) outside %dx%d", k+1, i, j, rows, cols)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad value %q", k+1, fields[2])
			}
			if v != v {
				sawNaN = true
			}
		}
		coo.Add(i-1, j-1, v)
		if i != j {
			switch h.symmetry {
			case "symmetric":
				coo.Add(j-1, i-1, v)
			case "skew-symmetric":
				coo.Add(j-1, i-1, -v)
			}
		}
	}
	m := coo.ToCSR()
	m.Sym = symmetryKind(h.symmetry)
	if sawNaN && m.Sym != matrix.SymGeneral {
		m.Sym = matrix.SymGeneral
	}
	return m, nil
}

func refArray(br *bufio.Reader, h header) (*matrix.CSR, error) {
	sizeLine, err := nextDataLine(br)
	if err != nil {
		return nil, fmt.Errorf("mmio: missing size line: %w", err)
	}
	var rows, cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols); err != nil {
		return nil, fmt.Errorf("mmio: bad array size line %q: %w", sizeLine, err)
	}
	if err := checkDims(rows, cols); err != nil {
		return nil, err
	}
	coo := matrix.NewCOO(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			line, err := nextDataLine(br)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", i+1, j+1, err)
			}
			v, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): bad value %q", i+1, j+1, line)
			}
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	m := coo.ToCSR()
	if h.symmetry == "general" {
		m.Sym = matrix.SymGeneral
	}
	return m, nil
}
