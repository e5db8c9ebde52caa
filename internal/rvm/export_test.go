package rvm

// RaceEnabled lets the external tests skip their allocation gates.
const RaceEnabled = raceEnabled

// Quickener verifies every method of p on a fresh interpreter and returns
// a function that quickens them all, so a test can measure quickening
// alone. The returned function panics if a method does not quicken.
func Quickener(p *Program) func() {
	vm := NewInterp(p)
	var sts []*mstate
	for _, m := range p.Methods() {
		sts = append(sts, vm.state(m))
	}
	return func() {
		for _, st := range sts {
			if _, ok := buildQuick(st); !ok {
				panic("rvm: " + st.m.QualifiedName() + " does not quicken")
			}
		}
	}
}
