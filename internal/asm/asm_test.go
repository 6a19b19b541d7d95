package asm

import (
	"fmt"
	"strings"
	"testing"

	"mmxdsp/internal/isa"
)

func TestLinkResolvesLabelsAndSymbols(t *testing.T) {
	b := NewBuilder("t")
	b.Words("coef", []int16{1, 2, 3})
	b.Reserve("out", 64)
	b.Proc("main")
	b.I(isa.MOV, R(isa.ECX), Imm(3))
	b.Label("loop")
	b.I(isa.MOV, R(isa.EAX), Sym(isa.SizeW, "coef", 0))
	b.I(isa.DEC, R(isa.ECX))
	b.J(isa.JNE, "loop")
	b.I(isa.HALT)

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("loop label = %d, want 1", p.Labels["loop"])
	}
	if p.Insts[3].Target != 1 {
		t.Errorf("branch target = %d, want 1", p.Insts[3].Target)
	}
	coef := p.Addr("coef")
	if coef != DataBase {
		t.Errorf("coef addr = %#x, want %#x", coef, DataBase)
	}
	if p.Insts[1].B.Disp != int32(coef) {
		t.Errorf("symbol displacement = %d, want %d", p.Insts[1].B.Disp, coef)
	}
	out := p.Addr("out")
	if out < coef+6 {
		t.Errorf("bss symbol %#x overlaps data ending at %#x", out, coef+6)
	}
	if out%8 != 0 {
		t.Errorf("bss symbol %#x not 8-byte aligned", out)
	}
	if p.StackTop() >= p.MemSize || p.StackTop() < out+64 {
		t.Errorf("stack top %#x out of range", p.StackTop())
	}
}

func TestLinkErrors(t *testing.T) {
	b := NewBuilder("t")
	b.J(isa.JMP, "nowhere")
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("want unknown-label error, got %v", err)
	}

	b = NewBuilder("t")
	b.I(isa.MOV, R(isa.EAX), Sym(isa.SizeD, "missing", 0))
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("want unknown-symbol error, got %v", err)
	}

	b = NewBuilder("t")
	b.Label("x")
	b.Label("x")
	b.I(isa.HALT)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-label error, got %v", err)
	}

	b = NewBuilder("t")
	b.Words("d", []int16{1})
	b.Reserve("d", 8)
	b.I(isa.HALT)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-symbol error, got %v", err)
	}

	// 256 × 16 MiB once wrapped the 32-bit BSS sum to a 128 KiB image
	// with aliased symbols; the layout must refuse it, not wrap.
	b = NewBuilder("t")
	for i := 0; i < 256; i++ {
		b.Reserve(fmt.Sprintf("r%d", i), 1<<24)
	}
	b.I(isa.HALT)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("want memory-image cap error, got %v", err)
	}
}

func TestLinkMemSizeUpToCap(t *testing.T) {
	link := func(extra int) (*Program, error) {
		b := NewBuilder("t")
		b.Words("d", []int16{1})
		b.Reserve("a", 3)
		b.Reserve("big", MaxMemSize-DataBase-StackSize-16+extra)
		b.I(isa.HALT)
		return b.Link()
	}
	p, err := link(0)
	if err != nil {
		t.Fatalf("image of exactly the cap: %v", err)
	}
	if p.MemSize != MaxMemSize || p.Symbols["big"] != DataBase+16 {
		t.Errorf("MemSize %d, big at %#x; want %d and %#x", p.MemSize, p.Symbols["big"], MaxMemSize, DataBase+16)
	}
	if _, err := link(1); err == nil {
		t.Error("an image one byte over the cap linked")
	}
}

func TestDataEncodingLittleEndian(t *testing.T) {
	b := NewBuilder("t")
	b.Words("w", []int16{0x0102, -2})
	b.Dwords("d", []int32{0x01020304})
	b.I(isa.HALT)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	w := p.Addr("w") - DataBase
	if p.Data[w] != 0x02 || p.Data[w+1] != 0x01 {
		t.Errorf("word not little-endian: % x", p.Data[w:w+2])
	}
	if p.Data[w+2] != 0xFE || p.Data[w+3] != 0xFF {
		t.Errorf("negative word wrong: % x", p.Data[w+2:w+4])
	}
	d := p.Addr("d") - DataBase
	if p.Data[d] != 0x04 || p.Data[d+3] != 0x01 {
		t.Errorf("dword not little-endian: % x", p.Data[d:d+4])
	}
	if p.Addr("d")%8 != 0 {
		t.Error("data symbol not 8-byte aligned")
	}
}

func TestProcExtents(t *testing.T) {
	b := NewBuilder("t")
	b.Proc("main")
	b.I(isa.MOV, R(isa.EAX), Imm(1))
	b.Call("f")
	b.I(isa.HALT)
	b.Proc("f")
	b.I(isa.ADD, R(isa.EAX), Imm(1))
	b.Ret()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ProcAt(0); got != "main" {
		t.Errorf("ProcAt(0) = %q, want main", got)
	}
	if got := p.ProcAt(2); got != "main" {
		t.Errorf("ProcAt(2) = %q, want main", got)
	}
	if got := p.ProcAt(3); got != "f" {
		t.Errorf("ProcAt(3) = %q, want f", got)
	}
	if got := p.ProcAt(4); got != "f" {
		t.Errorf("ProcAt(4) = %q, want f", got)
	}
}

func TestListing(t *testing.T) {
	b := NewBuilder("demo")
	b.Proc("main")
	b.I(isa.MOV, R(isa.EAX), Imm(7))
	b.Label("spin")
	b.I(isa.DEC, R(isa.EAX))
	b.J(isa.JNE, "spin")
	b.I(isa.HALT)
	p := b.MustLink()
	l := p.Listing()
	for _, want := range []string{"main:", "spin:", "mov eax, 7", "jne spin", "halt"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestAddrPanicsOnUnknown(t *testing.T) {
	b := NewBuilder("t")
	b.I(isa.HALT)
	p := b.MustLink()
	defer func() {
		if recover() == nil {
			t.Error("Addr on unknown symbol must panic")
		}
	}()
	p.Addr("nope")
}
