package cfg_test

import (
	"fmt"
	"slices"
	"testing"

	"dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/workloads"
)

// TestImageIsTheReferenceEncoding: for the seven presets in both encoding
// modes, the generated image is the reference encoding — the bytes
// isa.AppendInst writes for Program.Insts, block after block — and, in fixed
// mode, its branch index is what the pre-decoder decodes from those bytes
// without one: per cache block through PredecodeBlock, and per byte offset
// through DecodeBranchAt on a sample of blocks.
func TestImageIsTheReferenceEncoding(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		for _, p := range workloads.All(mode) {
			t.Run(fmt.Sprintf("%s/%v", p.Name, mode), func(t *testing.T) {
				prog := cfg.Generate(p)
				im := prog.Image
				ref := make([]byte, 0, len(im.Code))
				for bb := range prog.Blocks {
					for _, in := range prog.Insts(int32(bb)) {
						ref = isa.AppendInst(ref, mode, in)
					}
				}
				if len(ref) != len(im.Code) {
					t.Fatalf("image is %d bytes, the reference encoding %d", len(im.Code), len(ref))
				}
				for i := range ref {
					if ref[i] != im.Code[i] {
						t.Fatalf("image byte at %#x is %#02x, the reference encoding's %#02x",
							im.Base+isa.Addr(i), im.Code[i], ref[i])
					}
				}

				raw := isa.NewImage(mode, im.Base, ref)
				first, last := isa.BlockOf(im.Base), isa.BlockOf(im.End()-1)
				for b := first; b <= last; b++ {
					if got, want := isa.PredecodeBlock(im, b), isa.PredecodeBlock(raw, b); !slices.Equal(got, want) {
						t.Fatalf("block %#x: indexed branches %+v, decoded %+v", b, got, want)
					}
					if (b-first)%16 != 0 && b != last {
						continue
					}
					for off := 0; off < isa.BlockBytes; off++ {
						got, gotOK := isa.DecodeBranchAt(im, b, uint8(off))
						want, wantOK := isa.DecodeBranchAt(raw, b, uint8(off))
						if got != want || gotOK != wantOK {
							t.Fatalf("block %#x offset %d: indexed %+v %v, decoded %+v %v",
								b, off, got, gotOK, want, wantOK)
						}
					}
				}
			})
		}
	}
}
