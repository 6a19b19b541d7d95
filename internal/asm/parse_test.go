// Black-box tests for the textual assembler front end. The load-bearing
// property is the listing round trip: every suite program's Listing()
// re-assembles into the same instruction stream, so the text syntax is a
// faithful serialization of linked code.
package asm_test

import (
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

func TestParseSourceRoundTripsSuiteListings(t *testing.T) {
	for _, bench := range suite.All() {
		prog, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", bench.Name(), err)
		}
		re, err := asm.ParseSource(bench.Name()+".reparse", prog.Listing())
		if err != nil {
			t.Errorf("%s: listing failed to re-assemble: %v", bench.Name(), err)
			continue
		}
		if len(re.Insts) != len(prog.Insts) {
			t.Errorf("%s: reparse has %d instructions, want %d",
				bench.Name(), len(re.Insts), len(prog.Insts))
			continue
		}
		for i := range prog.Insts {
			want, got := prog.Insts[i], re.Insts[i]
			if want.String() != got.String() {
				t.Errorf("%s: instruction %d: got %q, want %q",
					bench.Name(), i, got.String(), want.String())
				break
			}
			if want.Target != got.Target {
				t.Errorf("%s: instruction %d (%s): branch target %d, want %d",
					bench.Name(), i, want.String(), got.Target, want.Target)
				break
			}
		}
		if len(re.Labels) != len(prog.Labels) {
			t.Errorf("%s: reparse has %d labels, want %d",
				bench.Name(), len(re.Labels), len(prog.Labels))
		}
		for name, idx := range prog.Labels {
			if got, ok := re.Labels[name]; !ok || got != idx {
				t.Errorf("%s: label %q at %d after reparse, want %d (present=%t)",
					bench.Name(), name, got, idx, ok)
			}
		}
	}
}

// TestParseSourceProgramExecutes assembles a hand-written source file and
// runs it: data directives, .entry, labels, scaled addressing and branches
// must all mean what they say.
func TestParseSourceProgramExecutes(t *testing.T) {
	const src = `
; sum the xs array into out
.dwords xs 1,2,3,4
.reserve out 8

dead:
	halt            ; skipped: .entry points past it

.proc main
.entry
	mov ecx, 0
	mov eax, 0
loop:
	add eax, dword [xs+ecx*4]
	add ecx, 1
	cmp ecx, 4
	jl loop
	mov dword [out], eax
	halt
`
	prog, err := asm.ParseSource("sum4", src)
	if err != nil {
		t.Fatalf("ParseSource: %v", err)
	}
	if prog.Entry != 1 {
		t.Fatalf("entry = %d, want 1 (past the dead halt)", prog.Entry)
	}
	if got := prog.ProcAt(3); got != "main" {
		t.Errorf("ProcAt(3) = %q, want main", got)
	}
	cpu := vm.New(prog)
	if err := cpu.Run(1 << 20); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, ok := cpu.Mem.LoadU32(prog.Addr("out"))
	if !ok || got != 10 {
		t.Fatalf("out = %d (ok=%t), want 10", got, ok)
	}
}

// TestParseSourceDataDirectives checks the data/bss forms lay out symbols.
func TestParseSourceDataDirectives(t *testing.T) {
	const src = `
.bytes b8 1,2,255
.words w16 -1,0x10
.dwords d32 -5
.reserve scratch 32
.entry
	mov eax, d32     ; address-of immediate
	halt
`
	prog, err := asm.ParseSource("data", src)
	if err != nil {
		t.Fatalf("ParseSource: %v", err)
	}
	for _, sym := range []string{"b8", "w16", "d32", "scratch"} {
		if _, ok := prog.Symbols[sym]; !ok {
			t.Errorf("symbol %q missing", sym)
		}
	}
	// The ImmSym operand must resolve to the symbol's absolute address.
	if imm := prog.Insts[0].B.Imm; imm != int64(prog.Addr("d32")) {
		t.Errorf("mov eax, d32 resolved to %d, want %d", imm, prog.Addr("d32"))
	}
	if prog.BSSSize < 32 {
		t.Errorf("bss size %d, want >= 32", prog.BSSSize)
	}
}

func TestParseSourceErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", "frobnicate eax", "unknown mnemonic"},
		{"unknown directive", ".sections foo", "unknown directive"},
		{"bad operand", "mov eax, @#$", "bad operand"},
		{"dangling bracket", "mov eax, dword [x", "unterminated"},
		{"branch to operand", "jne 5", "wants a label"},
		{"unknown label", "jne nowhere\nhalt", "unknown label"},
		{"unknown symbol", "mov eax, dword [nowhere]\nhalt", "unknown symbol"},
		{"too many operands", "add eax, ebx, ecx", "too many operands"},
		{"bad scale", "mov eax, dword [ebx*3]", "bad scale"},
		{"huge reserve", ".reserve x 99999999999", "bad .reserve size"},
		{"negated register", "mov eax, dword [ebx-ecx]", "negated non-numeric"},
		{"width on register", "mov dword eax, 5", "width prefix on non-memory"},
		{"bare index", "42", "bare instruction index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := asm.ParseSource("bad", tc.src)
			if err == nil {
				t.Fatalf("ParseSource(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// FuzzAsmSource throws arbitrary text at the assembler. Anything that
// assembles must produce a listing that re-assembles to the identical
// instruction stream and label map — the serialization is stable under
// iteration, and the parser never panics on garbage.
func FuzzAsmSource(f *testing.F) {
	f.Add("halt\n")
	f.Add("start:\n\tmov eax, 1\n\tjmp start\n")
	f.Add(".dwords xs 1,2,3\n.entry\n\tadd eax, dword [xs+ecx*4-8]\n\thalt\n")
	f.Add("; comment only\n\n.reserve out 8\nmain:\n\tmov dword [out], 7\n\thalt\n")
	f.Add(".proc f\n\tpush ebp\n\tpop ebp\n\tret\n.entry\n\tcall f\n\thalt\n")
	if prog, err := suite.All()[0].Build(); err == nil {
		f.Add(prog.Listing())
	}
	f.Add(maxReserves(256))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := asm.ParseSource("fuzz", src)
		if err != nil {
			return
		}
		if prog.MemSize > asm.MaxMemSize {
			t.Fatalf("memory image of %d bytes escaped the %d-byte cap", prog.MemSize, asm.MaxMemSize)
		}
		for name, addr := range prog.Symbols {
			if addr > prog.MemSize-asm.StackSize {
				t.Fatalf("symbol %q at %#x lies outside the %d-byte image's data", name, addr, prog.MemSize)
			}
		}
		listing := prog.Listing()
		re, err := asm.ParseSource("fuzz", listing)
		if err != nil {
			t.Fatalf("listing of assembled program failed to re-assemble: %v\n%s", err, listing)
		}
		if len(re.Insts) != len(prog.Insts) {
			t.Fatalf("reparse has %d instructions, want %d\n%s", len(re.Insts), len(prog.Insts), listing)
		}
		for i := range prog.Insts {
			if prog.Insts[i].String() != re.Insts[i].String() {
				t.Fatalf("instruction %d drifted: %q -> %q", i, prog.Insts[i], re.Insts[i])
			}
		}
		if len(re.Labels) != len(prog.Labels) {
			t.Fatalf("labels drifted: %d -> %d", len(prog.Labels), len(re.Labels))
		}
	})
}
