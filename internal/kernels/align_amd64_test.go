//go:build amd64 && !noasm

package kernels

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"regexp"
	"testing"
)

// TestAsmBodiesCacheLineAligned reads the test binary's own function
// table and fails unless every TEXT body of asm_amd64.s starts on a
// 64-byte boundary, which its leading PCALIGN $64 requests. An
// unaligned body moves its loops across cache lines whenever unrelated
// code changes size, so two builds would time the linker's placement
// rather than the kernel. go test links its binaries without the ELF
// symbol table, so the entries come from .gopclntab, which names the
// ABI0 bodies without their linker suffix (".abi0").
func TestAsmBodiesCacheLineAligned(t *testing.T) {
	src, err := os.ReadFile("asm_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	bodies := regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\)`).FindAllSubmatch(src, -1)
	if len(bodies) == 0 {
		t.Fatal("no TEXT bodies found in asm_amd64.s")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("test binary path unknown:", err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skip("test binary is not ELF:", err)
	}
	defer f.Close()
	pcln, text := f.Section(".gopclntab"), f.Section(".text")
	if pcln == nil || text == nil {
		t.Skip("test binary has no .gopclntab or .text section")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "github.com/sparsekit/spmvtuner/internal/kernels."
	for _, b := range bodies {
		name := pkg + string(b[1])
		fn := tab.LookupFunc(name)
		switch {
		case fn == nil:
			t.Errorf("%s: not in the function table", name)
		case fn.Entry%64 != 0:
			t.Errorf("%s at %#x: %d bytes past a cache line", name, fn.Entry, fn.Entry%64)
		}
	}
}
