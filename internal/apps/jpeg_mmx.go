package apps

import (
	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/vm"
)

// buildJpegMMX is the library-call version: nsColorConv for the color
// conversion, sixteen nsDct8 calls per block (the library has no 2-D DCT)
// with pack/widen staging around every call because the application keeps
// its planes in 32-bit ints, and nsQuant for quantization. The staging,
// transposes and per-row calls are exactly the overheads the paper blames
// for jpeg.mmx's slowdown.
func buildJpegMMX() (*asm.Program, error) { return buildJpegMMXVariant(false) }

// BuildJpegMMX2D is the "what if the library had a 2-D DCT" variant the
// paper's conclusion asks for: one fused nsDct2D call per block replaces
// the sixteen 1-D calls, transposes and per-row staging. Bit-identical
// output; used by BenchmarkAblationDct2D.
func BuildJpegMMX2D() (*asm.Program, error) { return buildJpegMMXVariant(true) }

// JPEGMMX2D returns the fused-DCT variant as a runnable benchmark.
func JPEGMMX2D() core.Benchmark {
	return core.Benchmark{
		Base: "jpeg2d", Version: core.VersionMMX, Kind: core.KindApplication,
		Descr: "jpeg.mmx with a fused 2-D DCT library call (paper's recommendation)",
		Build: BuildJpegMMX2D,
		Check: func(c *vm.CPU) error { return checkStream(c, jpegExpectedMMX(), "jpeg2d.mmx") },
	}
}

func buildJpegMMXVariant(fused2D bool) (*asm.Program, error) {
	name := "jpeg.mmx"
	if fused2D {
		name = "jpeg2d.mmx"
	}
	b := asm.NewBuilder(name)
	placeJpegCommon(b)
	mmxlib.EmitColorConv(b)
	mmxlib.EmitQuantRecip(b)
	if fused2D {
		mmxlib.EmitDct2D(b)
		mmxlib.Dct2DScratch(b)
	} else {
		mmxlib.EmitDct8(b)
	}

	b.Words("cccoef", mmxlib.ColorConvCoefs())
	b.Words("basis", mmxlib.DCTBasisQuads())
	recips, biases := jpegRecipsMMX()
	b.Words("recipsm", recips[:])
	b.Words("biasm", biases[:])
	n := jpgW * jpgH
	b.Reserve("y16", 2*n)
	b.Reserve("cb16", 2*n)
	b.Reserve("cr16", 2*n)
	b.Words("dctin", make([]int16, 8))
	b.Words("dctout", make([]int16, 8))
	b.Words("freq16", make([]int16, 64))
	if fused2D {
		b.Words("blkin16", make([]int16, 64))
		b.Words("dct2dtmp", make([]int16, 64))
	}

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emitJpegInit(b)

	// Color conversion through the library (one call), then widen each
	// 16-bit plane into the application's 32-bit planes.
	emit.Call(b, "nsColorConv", asm.ImmSym("img", 0), asm.Imm(jpgW*jpgH),
		asm.ImmSym("y16", 0), asm.ImmSym("cb16", 0), asm.ImmSym("cr16", 0),
		asm.ImmSym("cccoef", 0))
	b.I(isa.EMMS)
	for _, p := range [][2]string{{"planeY", "y16"}, {"planeCb", "cb16"}, {"planeCr", "cr16"}} {
		emit.Call(b, "widen_plane", asm.ImmSym(p[0], 0), asm.ImmSym(p[1], 0),
			asm.Imm(jpgW*jpgH))
	}

	emitBlockLoop(b, func() {
		emitCall0(b, "extract_block")
		emitCall0(b, "fdct_lib")
		emit.Call(b, "nsQuant", asm.ImmSym("freq16", 0), asm.ImmSym("recipsm", 0),
			asm.ImmSym("qcoef", 0), asm.Imm(64), asm.ImmSym("biasm", 0))
		b.I(isa.EMMS)
		emitCall0(b, "rle_block")
	})
	b.I(isa.PROFOFF)
	b.I(isa.HALT)

	// --- widen_plane(dst32, src16, n)
	b.Proc("widen_plane")
	emit.LoadArg(b, isa.EDI, 0)
	emit.LoadArg(b, isa.ESI, 1)
	emit.LoadArg(b, isa.ECX, 2)
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label("wp.loop")
	b.I(isa.MOVSXW, asm.R(isa.EDX), asm.MemIdx(isa.SizeW, isa.ESI, isa.EAX, 2, 0))
	b.I(isa.MOV, asm.MemIdx(isa.SizeD, isa.EDI, isa.EAX, 4, 0), asm.R(isa.EDX))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.R(isa.ECX))
	b.J(isa.JL, "wp.loop")
	b.Ret()

	// --- pack8(src, strideBytes): 8 int32 -> dctin int16.
	b.Proc("pack8")
	emit.LoadArg(b, isa.ESI, 0)
	emit.LoadArg(b, isa.EDX, 1)
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("p8.loop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeW, "dctin", isa.ECX, 2, 0), asm.R(isa.EAX))
	b.I(isa.ADD, asm.R(isa.ESI), asm.R(isa.EDX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(8))
	b.J(isa.JL, "p8.loop")
	b.Ret()

	// --- scatter8(dst, strideBytes): dctout int16 -> strided int16/int32.
	// Width is selected by the stride user: writes int16 words.
	b.Proc("scatter8w")
	emit.LoadArg(b, isa.EDI, 0)
	emit.LoadArg(b, isa.EDX, 1)
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("s8.loop")
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "dctout", isa.ECX, 2, 0))
	b.I(isa.MOV, asm.MemW(isa.EDI, 0), asm.R(isa.EAX))
	b.I(isa.ADD, asm.R(isa.EDI), asm.R(isa.EDX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(8))
	b.J(isa.JL, "s8.loop")
	b.Ret()

	// --- widen8(dst): dctout int16 -> 8 contiguous int32.
	b.Proc("widen8")
	emit.LoadArg(b, isa.EDI, 0)
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("w8.loop")
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "dctout", isa.ECX, 2, 0))
	b.I(isa.MOV, asm.MemIdx(isa.SizeD, isa.EDI, isa.ECX, 4, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(8))
	b.J(isa.JL, "w8.loop")
	b.Ret()

	if fused2D {
		// --- fdct_lib: one fused 2-D DCT call per block. The application
		// still packs its 32-bit block to the library's 16-bit format
		// once, but the 16 calls, transposes and per-row staging vanish.
		b.Proc("fdct_lib")
		b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
		b.Label("f2d.pack")
		b.I(isa.MOV, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "blk32", isa.ECX, 4, 0))
		b.I(isa.MOV, asm.SymIdx(isa.SizeW, "blkin16", isa.ECX, 2, 0), asm.R(isa.EAX))
		b.I(isa.INC, asm.R(isa.ECX))
		b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(64))
		b.J(isa.JL, "f2d.pack")
		emit.Call(b, "nsDct2D", asm.ImmSym("blkin16", 0), asm.ImmSym("freq16", 0),
			asm.ImmSym("basis", 0), asm.ImmSym("dct2dtmp", 0))
		b.I(isa.EMMS)
		b.Ret()
	} else {
		// --- fdct_lib: the 2-D DCT by sixteen 1-D library calls with
		// staging.
		b.Proc("fdct_lib")
		// Row pass: blk32 rows -> pack -> nsDct8 -> widen back into blk32.
		for r := 0; r < 8; r++ {
			emit.Call(b, "pack8", asm.ImmSym("blk32", int64(32*r)), asm.Imm(4))
			emit.Call(b, "nsDct8", asm.ImmSym("dctin", 0), asm.ImmSym("dctout", 0),
				asm.ImmSym("basis", 0))
			emit.Call(b, "widen8", asm.ImmSym("blk32", int64(32*r)))
		}
		b.I(isa.EMMS)
		// Column pass: gather columns, transform, scatter into freq16.
		for c := 0; c < 8; c++ {
			emit.Call(b, "pack8", asm.ImmSym("blk32", int64(4*c)), asm.Imm(32))
			emit.Call(b, "nsDct8", asm.ImmSym("dctin", 0), asm.ImmSym("dctout", 0),
				asm.ImmSym("basis", 0))
			emit.Call(b, "scatter8w", asm.ImmSym("freq16", int64(2*c)), asm.Imm(16))
		}
		b.I(isa.EMMS)
		b.Ret()
	}

	emitRleProc(b)
	emitExtractProc(b)

	return b.Link()
}
