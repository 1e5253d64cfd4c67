// Package mmio reads and writes Matrix Market (.mtx) files, the
// interchange format of the University of Florida / SuiteSparse matrix
// collection that the paper draws its evaluation and training matrices
// from. The synthetic suite substitutes for the collection offline, but
// the I/O path lets real SuiteSparse files be dropped into every tool.
//
// Supported: "matrix coordinate {real,integer,pattern}
// {general,symmetric,skew-symmetric}" and "matrix array real general".
//
// Accepted grammar. The first line is the "%%MatrixMarket" banner with
// the four typecode words, matched case-insensitively. Lines split at
// '\n'; blank lines and lines whose first non-space character is '%'
// are skipped anywhere after the banner. The size line holds
// "rows cols nnz" (coordinate) or "rows cols" (array), read as by
// fmt.Sscan. A coordinate entry line holds "row col value", or
// "row col" for pattern files, with 1-based indices read as by
// strconv.Atoi and values read as strconv.ParseFloat reads them, to
// the same bits; an array line holds one value, in column-major order. Fields split at white space
// as strings.Fields splits it, so '\r', tabs and Unicode spaces
// separate fields, and fields past the needed ones are ignored, as is
// anything after the last entry the size line announces. Duplicate
// coordinate entries are summed, explicit zeros are kept, and
// symmetric and skew-symmetric files are mirrored into full storage.
//
// Parsing. Read reads the entries in blocks of a few MiB cut at line
// ends, parses the blocks on runtime.GOMAXPROCS(0) workers and builds
// the CSR arrays in one counting pass by row. A plain decimal value,
// [+-]?digits[.digits]?([eE][+-]?digits)? as Write emits it, is
// converted by an exact fast path: the mantissa is scanned eight
// digits at a time and converted by the Eisel–Lemire algorithm, which
// returns strconv.ParseFloat's bits or declines. Hex, inf and nan,
// more than about 19 significant digits, subnormals, overflow and the
// values it cannot round with certainty take strconv.ParseFloat.
// Memory is bounded by the input size and the declared dimensions (at
// most maxDim): no buffer is sized from the entry count a header
// claims.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// header captures the typecode line of a Matrix Market file.
type header struct {
	object   string // "matrix"
	format   string // "coordinate" | "array"
	field    string // "real" | "integer" | "pattern" | "complex"
	symmetry string // "general" | "symmetric" | "skew-symmetric" | "hermitian"
}

// Read parses a Matrix Market stream into a CSR matrix.
func Read(r io.Reader) (*matrix.CSR, error) { return read(r, blockSize) }

// read is Read with the entry block size as a parameter, so tests can
// put block boundaries at every byte offset.
func read(r io.Reader, block int) (*matrix.CSR, error) {
	br := bufio.NewReaderSize(r, 64<<10)
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
		return readCoordinate(br, h, block)
	case "array":
		if h.field == "pattern" {
			return nil, fmt.Errorf("mmio: array format cannot be pattern")
		}
		return readArray(br, h, block)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", h.format)
	}
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*matrix.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("mmio: %s: %w", path, err)
	}
	return m, nil
}

func readHeader(br *bufio.Reader) (header, error) {
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return header{}, fmt.Errorf("mmio: empty input: %w", err)
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "%%MatrixMarket") {
		return header{}, fmt.Errorf("mmio: missing %%%%MatrixMarket banner, got %q", line)
	}
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) < 5 {
		return header{}, fmt.Errorf("mmio: short banner %q", line)
	}
	return header{object: fields[1], format: fields[2], field: fields[3], symmetry: fields[4]}, nil
}

// nextDataLine returns the next non-comment, non-blank line.
func nextDataLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			return trimmed, nil
		}
		if err != nil {
			return "", err
		}
	}
}

// maxDim caps accepted matrix dimensions. CSR conversion allocates
// O(rows) row pointers, so an adversarial size line like
// "2000000000 2000000000 0" would force a multi-gigabyte allocation
// from a 30-byte input. 1<<26 (~67M) admits every SuiteSparse matrix
// in this reproduction's range (the paper's largest, circuit5M, has
// 5.6M rows) and the large web graphs beyond it, while bounding the
// worst hostile-header allocation at ~0.5 GB of row pointers.
const maxDim = 1 << 26

func checkDims(rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("mmio: invalid dimensions %d x %d", rows, cols)
	}
	if rows > maxDim || cols > maxDim {
		return fmt.Errorf("mmio: dimensions %d x %d exceed the %d cap", rows, cols, maxDim)
	}
	return nil
}

func readCoordinate(br *bufio.Reader, h header, block int) (*matrix.CSR, error) {
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
		// A rectangular symmetric file is self-contradictory, and
		// mirroring its entries would index outside the matrix.
		return nil, fmt.Errorf("mmio: %s matrix must be square, got %d x %d", h.symmetry, rows, cols)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mmio: negative nnz %d", nnz)
	}
	p := &lineParser{rows: rows, cols: cols, pattern: h.field == "pattern"}
	chunks, rerr := scan(br, block, nnz, p.parse)
	switch got, bad := tally(chunks, nnz); {
	case bad != "":
		return nil, fmt.Errorf("mmio: entry %d: %s", got+1, bad)
	case got < nnz:
		return nil, fmt.Errorf("mmio: entry %d/%d: %w", got+1, nnz, rerr)
	}
	m, sawNaN := assembleCoordinate(chunks, nnz, rows, cols, h.symmetry)
	m.Sym = symmetryKind(h.symmetry)
	if sawNaN && m.Sym != matrix.SymGeneral {
		// NaN never compares equal to itself, so DetectSymmetry would
		// refute the header's claim and the symmetric-storage path
		// would reject the matrix at conversion time. Downgrade to the
		// general kind rather than annotate something unverifiable —
		// the assembled (mirrored) matrix is unchanged either way.
		m.Sym = matrix.SymGeneral
	}
	return m, nil
}

// symmetryKind maps a Matrix Market symmetry word to the matrix-level
// kind, so symmetry survives parsing instead of being flattened away by
// the mirroring: downstream layers (the SSS format, the tuner's
// symmetric path, Write) all key off CSR.Sym.
func symmetryKind(word string) matrix.Symmetry {
	switch word {
	case "symmetric":
		return matrix.SymSymmetric
	case "skew-symmetric":
		return matrix.SymSkew
	default:
		return matrix.SymGeneral
	}
}

func readArray(br *bufio.Reader, h header, block int) (*matrix.CSR, error) {
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
	// Array format is column-major, all entries present: entry k is
	// (k mod rows, k div rows).
	total := rows * cols
	p := &lineParser{array: true}
	chunks, rerr := scan(br, block, total, p.parse)
	switch k, bad := tally(chunks, total); {
	case bad != "":
		return nil, fmt.Errorf("mmio: array entry (%d,%d): %s", k%rows+1, k/rows+1, bad)
	case k < total:
		return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", k%rows+1, k/rows+1, rerr)
	}
	m := assembleArray(chunks, rows, cols)
	if h.symmetry == "general" {
		// Non-general array files are parsed as the full entry grid
		// above (a pre-existing simplification), so their symmetry is
		// left for DetectSymmetry rather than asserted from the header.
		m.Sym = matrix.SymGeneral
	}
	return m, nil
}

// Write emits m in Matrix Market coordinate real format with 1-based
// indices, one entry per line in row-major order. A matrix carrying a
// verified symmetry kind is written as "symmetric" or "skew-symmetric"
// with only its lower triangle (diagonal included), so a matrix parsed
// from a symmetric file round-trips with the halved on-disk entry
// count instead of doubling into "general". The kind is re-verified
// against the stored entries before the compact form is used — a
// mislabeled matrix falls back to "general" rather than silently
// dropping its upper triangle.
func Write(w io.Writer, m *matrix.CSR) error {
	kind := writeKind(m)
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", kind); err != nil {
		return err
	}
	if m.Name != "" {
		if _, err := fmt.Fprintf(bw, "%% %s\n", m.Name); err != nil {
			return err
		}
	}
	if kind == matrix.SymGeneral {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NRows, m.NCols, m.NNZ()); err != nil {
			return err
		}
		for i := 0; i < m.NRows; i++ {
			for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
				if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColInd[j]+1, m.Val[j]); err != nil {
					return err
				}
			}
		}
		return bw.Flush()
	}
	// Symmetric/skew-symmetric: lower triangle only. The mirrored half
	// is implied by the header and reconstructed exactly on reparse
	// (negation is exact for the skew case). Explicit diagonal entries
	// are emitted as stored — the reader adds unmirrored diagonals once,
	// so write+reparse is a fixed point of the full assembled matrix.
	var stored int64
	for i := 0; i < m.NRows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			if int(m.ColInd[j]) <= i {
				stored++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NRows, m.NCols, stored); err != nil {
		return err
	}
	for i := 0; i < m.NRows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			if int(m.ColInd[j]) > i {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColInd[j]+1, m.Val[j]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeKind resolves the symmetry word Write emits: the matrix's
// claimed kind when DetectSymmetry confirms it, general otherwise.
func writeKind(m *matrix.CSR) matrix.Symmetry {
	switch m.Sym {
	case matrix.SymSymmetric, matrix.SymSkew:
		if matrix.DetectSymmetry(m) == m.Sym {
			return m.Sym
		}
	}
	return matrix.SymGeneral
}

// WriteFile writes m to path in Matrix Market format.
func WriteFile(path string, m *matrix.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
