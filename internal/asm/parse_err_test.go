// Error-path coverage for ParseSource with position assertions: every
// parse-stage diagnostic must name the source (asm(<name>)) and the
// 1-based line it arose on, so a daemon operator reading a 400 from a
// submitted listing can find the offending line.
package asm_test

import (
	"fmt"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
)

func TestParseSourceErrorLineInfo(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int    // expected 1-based line in the error
		want string // expected message fragment
	}{
		{
			name: "unknown mnemonic first line",
			src:  "frobnicate eax, 1",
			line: 1,
			want: `unknown mnemonic "frobnicate"`,
		},
		{
			name: "unknown mnemonic after blanks and comments",
			src:  "; header\n\nstart:\n\tmov eax, 1\n\tfrobnicate eax\n",
			line: 5,
			want: `unknown mnemonic "frobnicate"`,
		},
		{
			name: "duplicate label",
			src:  "loop:\n\tadd eax, 1\nloop:\n\thalt\n",
			line: 3,
			want: `duplicate label "loop"`,
		},
		{
			name: "duplicate label via proc",
			src:  ".proc main\n\thalt\nmain:\n\thalt\n",
			line: 3,
			want: `duplicate label "main"`,
		},
		{
			name: "duplicate data symbol",
			src:  ".words xs 1,2\n.words xs 3,4\n",
			line: 2,
			want: `duplicate data symbol "xs"`,
		},
		{
			name: "malformed operand",
			src:  "start:\n\tmov eax, @#$\n",
			line: 2,
			want: `bad operand "@#$"`,
		},
		{
			name: "malformed memory operand",
			src:  "\tmov eax, 1\n\tmov ebx, dword [eax*7]\n",
			line: 2,
			want: "bad scale",
		},
		{
			name: "unterminated memory operand",
			src:  "a:\nb:\nc:\n\tmov eax, dword [xs\n",
			line: 4,
			want: "unterminated memory operand",
		},
		{
			name: "empty operand",
			src:  "\tadd eax, ,\n",
			line: 1,
			want: "empty operand",
		},
		{
			name: "too many operands",
			src:  "one:\n\ttwo: add eax, ebx, ecx\n",
			line: 2,
			want: "too many operands",
		},
		{
			// 64 maximal reserves once linked to a 1 GiB image.
			name: "reserve crossing the memory-image cap",
			src:  maxReserves(64),
			line: 4,
			want: fmt.Sprintf("exceeds the %d-byte cap", asm.MaxMemSize),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := asm.ParseSource("prog", tc.src)
			if err == nil {
				t.Fatalf("ParseSource(%q) succeeded, want error", tc.src)
			}
			msg := err.Error()
			if wantPos := fmt.Sprintf("asm(prog): line %d:", tc.line); !strings.Contains(msg, wantPos) {
				t.Errorf("error %q does not carry position %q", msg, wantPos)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not contain %q", msg, tc.want)
			}
		})
	}
}

// maxReserves is a listing of n maximal (16 MiB) .reserve directives and
// a halt: 256 of them once wrapped the linker's 32-bit layout sum.
func maxReserves(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".reserve r%d 16777216\n", i)
	}
	return b.String() + "halt\n"
}

// TestParseSourceErrorStopsAtFirst pins that parsing reports the earliest
// failing line, not a later or aggregated one.
func TestParseSourceErrorStopsAtFirst(t *testing.T) {
	src := "\tbogus1 eax\n\tbogus2 ebx\n"
	_, err := asm.ParseSource("prog", src)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "line 1:") || !strings.Contains(err.Error(), "bogus1") {
		t.Errorf("error %q should report line 1 / bogus1 first", err)
	}
}
