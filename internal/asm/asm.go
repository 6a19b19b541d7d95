// Package asm is a macro-assembler for the simulated ISA. Go is the macro
// language: benchmark programs and library routines are Go functions that
// drive a Builder, emitting labeled instructions and data, and Link resolves
// labels and data symbols into a Program the virtual machine executes.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"mmxdsp/internal/isa"
)

// Memory layout constants. The data segment starts at DataBase; the stack
// occupies the top StackSize bytes of the image and grows down.
const (
	DataBase  = 0x10000
	StackSize = 0x10000
	// stackGuard keeps a small red zone below the initial stack pointer.
	stackGuard = 16
	// MaxMemSize caps a linked program's whole memory image (data, BSS
	// and stack), which every run allocates. The suite's largest image is
	// under 3 MiB; the cap stops a short listing of large .reserve
	// directives from costing gigabytes per run.
	MaxMemSize = 64 << 20
)

// Program is a linked, executable image.
type Program struct {
	Name    string
	Insts   []isa.Inst
	Entry   int
	Labels  map[string]int
	Symbols map[string]uint32 // data and bss symbols -> absolute addresses
	Data    []byte            // initialized data, loaded at DataBase
	BSSSize uint32            // zero-initialized space following Data
	MemSize uint32            // total memory image size
	// Procs maps instruction ranges to procedure names for profiler
	// attribution, sorted by Start.
	Procs []ProcInfo
	// Meta is the per-PC static instruction metadata (isa.ProgramMeta),
	// computed once at link time so the timing model and profiler index it
	// instead of re-deriving per retired event.
	Meta []isa.InstMeta
	// blocks is the memoized basic-block partition (see Blocks).
	blocks []BlockInfo
}

// InstMeta returns the per-PC static metadata table, computing it on demand
// for programs constructed without Link (e.g. struct literals in tests).
func (p *Program) InstMeta() []isa.InstMeta {
	if p.Meta == nil {
		p.Meta = isa.ProgramMeta(p.Insts)
	}
	return p.Meta
}

// ProcInfo records that instructions [Start, End) belong to procedure Name.
type ProcInfo struct {
	Name  string
	Start int
	End   int
}

// StackTop returns the initial stack pointer.
func (p *Program) StackTop() uint32 { return p.MemSize - stackGuard }

// Addr returns the absolute address of a data symbol, panicking if the
// symbol is unknown (programs are constructed by trusted Go code; a missing
// symbol is a programming error caught by tests).
func (p *Program) Addr(sym string) uint32 {
	a, ok := p.Symbols[sym]
	if !ok {
		panic(fmt.Sprintf("asm: program %s has no symbol %q", p.Name, sym))
	}
	return a
}

// ProcAt returns the name of the procedure containing instruction index pc,
// or "" if none.
func (p *Program) ProcAt(pc int) string {
	i := sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].Start > pc })
	if i == 0 {
		return ""
	}
	pr := p.Procs[i-1]
	if pc < pr.End {
		return pr.Name
	}
	return ""
}

// Listing renders a human-readable disassembly with interleaved labels.
func (p *Program) Listing() string {
	byIndex := map[int][]string{}
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s: %d instructions, %d data bytes, %d bss bytes\n",
		p.Name, len(p.Insts), len(p.Data), p.BSSSize)
	for i, in := range p.Insts {
		labels := byIndex[i]
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%6d    %s\n", i, in.String())
	}
	// Labels may point one past the last instruction (end labels); keep
	// them so the listing is a complete serialization of the code.
	trailing := byIndex[len(p.Insts)]
	sort.Strings(trailing)
	for _, l := range trailing {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

// Builder accumulates instructions, labels and data, then links them into a
// Program.
type Builder struct {
	name    string
	insts   []isa.Inst
	labels  map[string]int
	data    []byte
	symbols map[string]uint32 // relative to DataBase during building
	bss     []bssEntry
	bssSize uint64 // sum of the 8-byte-aligned reservations
	procs   []ProcInfo
	entry   int
	errs    []error
}

type bssEntry struct {
	name string
	size uint32
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  map[string]int{},
		symbols: map[string]uint32{},
	}
}

// errorf records a build error; Link reports the first one.
func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("asm(%s): "+format, append([]any{b.name}, args...)...))
}

// PC returns the index the next instruction will occupy.
func (b *Builder) PC() int { return len(b.insts) }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errorf("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.insts)
}

// Proc starts a procedure: it defines a label and opens a procedure extent
// for profiler attribution. The extent closes at the next Proc or at Link.
func (b *Builder) Proc(name string) {
	b.closeProc()
	b.Label(name)
	b.procs = append(b.procs, ProcInfo{Name: name, Start: len(b.insts), End: -1})
}

func (b *Builder) closeProc() {
	if n := len(b.procs); n > 0 && b.procs[n-1].End < 0 {
		b.procs[n-1].End = len(b.insts)
	}
}

// Entry marks the current position as the program entry point
// (default is instruction 0).
func (b *Builder) Entry() { b.entry = len(b.insts) }

// I emits an instruction with up to two operands.
func (b *Builder) I(op isa.Op, operands ...isa.Operand) {
	in := isa.Inst{Op: op, Target: -1}
	switch len(operands) {
	case 0:
	case 1:
		in.A = operands[0]
	case 2:
		in.A, in.B = operands[0], operands[1]
	default:
		b.errorf("%s: too many operands", op)
	}
	b.insts = append(b.insts, in)
}

// J emits a jump or conditional branch to a label.
func (b *Builder) J(op isa.Op, label string) {
	b.insts = append(b.insts, isa.Inst{Op: op, Target: -1, TargetSym: label})
}

// Call emits a call to a procedure label.
func (b *Builder) Call(proc string) {
	b.insts = append(b.insts, isa.Inst{Op: isa.CALL, Target: -1, TargetSym: proc})
}

// Ret emits a return.
func (b *Builder) Ret() { b.I(isa.RET) }

// ---------------------------------------------------------------------------
// Data section

func (b *Builder) defineSym(name string, off uint32) {
	if _, dup := b.symbols[name]; dup {
		b.errorf("duplicate data symbol %q", name)
		return
	}
	b.symbols[name] = off
}

// Align pads the data section to a multiple of n bytes. MMX code depends on
// 8-byte alignment for quadword loads.
func (b *Builder) Align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Bytes places raw bytes in the data section under a symbol (8-byte aligned).
func (b *Builder) Bytes(name string, v []byte) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	b.data = append(b.data, v...)
}

// Words places little-endian int16 data under a symbol (8-byte aligned).
func (b *Builder) Words(name string, v []int16) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	for _, x := range v {
		b.data = binary.LittleEndian.AppendUint16(b.data, uint16(x))
	}
}

// Dwords places little-endian int32 data under a symbol (8-byte aligned).
func (b *Builder) Dwords(name string, v []int32) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	for _, x := range v {
		b.data = binary.LittleEndian.AppendUint32(b.data, uint32(x))
	}
}

// Floats places float32 data under a symbol (8-byte aligned).
func (b *Builder) Floats(name string, v []float32) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	for _, x := range v {
		b.data = binary.LittleEndian.AppendUint32(b.data, math.Float32bits(x))
	}
}

// Doubles places float64 data under a symbol (8-byte aligned).
func (b *Builder) Doubles(name string, v []float64) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	for _, x := range v {
		b.data = binary.LittleEndian.AppendUint64(b.data, math.Float64bits(x))
	}
}

// Reserve allocates zero-initialized space (BSS) under a symbol,
// 8-byte aligned.
func (b *Builder) Reserve(name string, size int) {
	b.bss = append(b.bss, bssEntry{name, uint32(size)})
	b.bssSize += (uint64(size) + 7) &^ 7
}

// memSize is the page-aligned image the builder's contents link to: data
// and BSS from DataBase, then the stack. The uint64 sum cannot wrap, so
// no number of reservations slips under MaxMemSize.
func (b *Builder) memSize() uint64 {
	size := DataBase + (uint64(len(b.data))+7)&^7 + b.bssSize + StackSize
	return (size + 0xFFF) &^ 0xFFF
}

// ---------------------------------------------------------------------------
// Link

// Link resolves labels, procedure extents and data symbols, producing an
// executable Program.
func (b *Builder) Link() (*Program, error) {
	b.closeProc()
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	memSize := b.memSize()
	if memSize > MaxMemSize {
		return nil, fmt.Errorf("asm(%s): memory image of %d bytes exceeds the %d-byte cap", b.name, memSize, MaxMemSize)
	}

	// Lay out BSS after initialized data, both 8-byte aligned.
	b.Align(8)
	symbols := make(map[string]uint32, len(b.symbols)+len(b.bss))
	for name, off := range b.symbols {
		symbols[name] = DataBase + off
	}
	bssOff := uint32(len(b.data))
	var bssSize uint32
	for _, e := range b.bss {
		if _, dup := symbols[e.name]; dup {
			return nil, fmt.Errorf("asm(%s): duplicate symbol %q", b.name, e.name)
		}
		symbols[e.name] = DataBase + bssOff + bssSize
		bssSize += (e.size + 7) &^ 7
	}

	insts := make([]isa.Inst, len(b.insts))
	copy(insts, b.insts)
	resolveOperand := func(o *isa.Operand, i int) error {
		if o.Sym == "" {
			return nil
		}
		addr, ok := symbols[o.Sym]
		if !ok {
			return fmt.Errorf("asm(%s): instruction %d (%s): unknown symbol %q",
				b.name, i, insts[i], o.Sym)
		}
		switch o.Kind {
		case isa.KindMem:
			o.Disp += int32(addr)
		case isa.KindImm:
			o.Imm += int64(addr)
		default:
			return fmt.Errorf("asm(%s): instruction %d: symbol on %v operand", b.name, i, o.Kind)
		}
		// The symbol is folded into the displacement now; dropping it keeps
		// listings self-contained (ParseSource round-trips them without the
		// data segment).
		o.Sym = ""
		return nil
	}
	for i := range insts {
		in := &insts[i]
		if in.TargetSym != "" {
			idx, ok := b.labels[in.TargetSym]
			if !ok {
				return nil, fmt.Errorf("asm(%s): instruction %d (%s): unknown label %q",
					b.name, i, in, in.TargetSym)
			}
			in.Target = int32(idx)
		}
		if err := resolveOperand(&in.A, i); err != nil {
			return nil, err
		}
		if err := resolveOperand(&in.B, i); err != nil {
			return nil, err
		}
	}

	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	procs := make([]ProcInfo, len(b.procs))
	copy(procs, b.procs)
	sort.Slice(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })

	data := make([]byte, len(b.data))
	copy(data, b.data)

	return &Program{
		Name:    b.name,
		Meta:    isa.ProgramMeta(insts),
		blocks:  ComputeBlocks(insts, b.entry),
		Insts:   insts,
		Entry:   b.entry,
		Labels:  labels,
		Symbols: symbols,
		Data:    data,
		BSSSize: bssSize,
		MemSize: uint32(memSize),
		Procs:   procs,
	}, nil
}

// MustLink links and panics on error; for use in tests and registries where
// a failure is a programming bug.
func (b *Builder) MustLink() *Program {
	p, err := b.Link()
	if err != nil {
		panic(err)
	}
	return p
}
