package rvm

import (
	"fmt"
	"sort"
)

// Class is a loaded class: a name, an optional superclass, field names
// (instance slots), methods, and implemented interface names.
type Class struct {
	Name       string
	Super      *Class
	FieldNames []string
	Methods    map[string]*Method
	Interfaces []string

	fieldIndex map[string]int
}

// NewClass creates a class with the given fields.
func NewClass(name string, super *Class, fields ...string) *Class {
	c := &Class{
		Name:       name,
		Super:      super,
		Methods:    make(map[string]*Method),
		fieldIndex: make(map[string]int),
	}
	if super != nil {
		c.FieldNames = append(c.FieldNames, super.FieldNames...)
	}
	c.FieldNames = append(c.FieldNames, fields...)
	for i, f := range c.FieldNames {
		c.fieldIndex[f] = i
	}
	return c
}

// FieldIndex returns the slot index of the named field.
func (c *Class) FieldIndex(name string) (int, bool) {
	i, ok := c.fieldIndex[name]
	return i, ok
}

// AddMethod attaches a method to the class.
func (c *Class) AddMethod(m *Method) {
	m.Class = c
	c.Methods[m.Name] = m
}

// ResolveMethod walks the superclass chain for a method, the
// invokevirtual resolution.
func (c *Class) ResolveMethod(name string) (*Method, bool) {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.Methods[name]; ok {
			return m, true
		}
	}
	return nil, false
}

// IsSubclassOf reports whether c is k or a subclass of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for cur := c; cur != nil; cur = cur.Super {
		if cur == k {
			return true
		}
	}
	return false
}

// Implements reports whether the class (or a superclass) declares the
// interface name.
func (c *Class) Implements(iface string) bool {
	for cur := c; cur != nil; cur = cur.Super {
		for _, i := range cur.Interfaces {
			if i == iface {
				return true
			}
		}
	}
	return false
}

// Method is a bytecode method: a flat instruction sequence with NArgs
// argument slots (slot 0 is the receiver for instance methods) and NLocals
// total local slots.
type Method struct {
	Name    string
	Class   *Class
	NArgs   int
	NLocals int
	Code    []Instr
	// Loops carries compiler-emitted loop-shape metadata (minilang's for
	// statement): the quickener uses it to prove the induction variable
	// non-negative and elide per-access null+bounds checks in tier-1.
	Loops []LoopInfo
}

// LoopInfo describes one canonical counted loop over an array:
//
//	for idx := <non-negative>; idx < len(arr); idx++ { ... }
//
// Head is the instruction index of the loop header (Load idx; Load arr;
// ArrayLen; CmpLT; JumpIfNot exit). IdxSlot/ArrSlot are the local slots of the induction
// variable and the array. InitNonNeg asserts the compiler initialized idx
// with a non-negative constant immediately before the header; the
// quickener independently re-derives every other region condition from
// the bytecode before trusting it.
type LoopInfo struct {
	Head             int
	IdxSlot, ArrSlot int
	InitNonNeg       bool
}

// QualifiedName returns Class.Name + "." + Name.
func (m *Method) QualifiedName() string {
	if m.Class == nil {
		return m.Name
	}
	return m.Class.Name + "." + m.Name
}

// Program is a set of classes plus a designated entry method.
type Program struct {
	Classes map[string]*Class
	Entry   *Method
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{Classes: make(map[string]*Class)}
}

// AddClass registers the class; duplicate names are an error.
func (p *Program) AddClass(c *Class) error {
	if _, dup := p.Classes[c.Name]; dup {
		return fmt.Errorf("rvm: duplicate class %q", c.Name)
	}
	p.Classes[c.Name] = c
	return nil
}

// Class looks a class up by name.
func (p *Program) Class(name string) (*Class, bool) {
	c, ok := p.Classes[name]
	return c, ok
}

// Methods returns every method of every class, sorted by qualified name.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].QualifiedName() < out[j].QualifiedName()
	})
	return out
}
