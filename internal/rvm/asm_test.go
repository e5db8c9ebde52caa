package rvm

import (
	"reflect"
	"slices"
	"testing"
)

// Methods assembled through one Asm share its buffer, so a built method's
// Code must be its own: building, growing and resetting for later
// methods never writes into it, and appending to it never writes into
// theirs.
func TestAsmBuiltMethodOwnsItsCode(t *testing.T) {
	a := NewAsm()
	a.Grow(16) // room for the first two methods
	a.Load(0).ConstInt(1).Op(OpAdd).Label("top").Jump(OpJump, "top")
	first := a.MustBuild("first", 1)
	a.Reset()
	a.ConstInt(7).Store(1).Label("top").Load(1).Jump(OpJumpIf, "top").Op(OpReturnVoid)
	second := a.MustBuild("second", 0)
	want := [][]Instr{slices.Clone(first.Code), slices.Clone(second.Code)}
	for _, m := range []*Method{first, second} {
		if cap(m.Code) != len(m.Code) {
			t.Errorf("%s.Code has cap %d, want its length %d", m.Name, cap(m.Code), len(m.Code))
		}
	}

	a.Reset()
	for i := 0; i < 40; i++ { // outgrows the shared buffer
		a.ConstInt(int64(i)).Store(2)
	}
	a.Label("top").Jump(OpJump, "top")
	third := a.MustBuild("third", 0)
	_ = append(first.Code, Instr{Op: OpNop}) // must not land in second

	for i, m := range []*Method{first, second} {
		if !reflect.DeepEqual(m.Code, want[i]) {
			t.Errorf("%s changed by later builds:\n got %v\nwant %v", m.Name, m.Code, want[i])
		}
	}
	if got := second.Code[3]; got.Op != OpJumpIf || got.A != 2 {
		t.Errorf("second's branch = %v, want jumpif 2, relative to its own start", got)
	}
	if got := third.Code[80]; got.Op != OpJump || got.A != 80 {
		t.Errorf("third's branch = %v, want jump 80", got)
	}
}

// A quickened instruction is 40 bytes: what only resolution sites use sits
// behind its one pointer (DESIGN.md §10).
func TestQinstrIs40Bytes(t *testing.T) {
	if got := reflect.TypeFor[qinstr]().Size(); got != 40 {
		t.Errorf("qinstr is %d bytes, want 40", got)
	}
}
