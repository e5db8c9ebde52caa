// Package rvm implements a small stack-bytecode virtual machine — the
// "JVM substrate" of this reproduction. The paper's compiler experiments
// (§5, §6, §7) were performed on HotSpot with the Graal JIT; Go has no JIT
// to instrument, so the RVM provides the same experimental surface from
// scratch: classes with virtual and interface dispatch, objects and
// arrays, monitors, atomic compare-and-swap, method handles created by an
// invokedynamic-style instruction, and guard-checked array accesses.
//
// Bytecode is the input format (produced by the minilang compiler and by
// the kernel builders); the optimizing compiler in rvm/ir and rvm/opt
// translates it to an IR, applies the paper's seven optimizations, and
// executes it under a deterministic cycle cost model. The bytecode
// interpreter in this package provides the reference semantics that the IR
// execution is differentially tested against.
package rvm

import (
	"fmt"
	"math"
	"unsafe"
)

// Kind discriminates runtime values.
type Kind uint8

// Value kinds. KindNull is the zero value, so freshly allocated field
// slots, array elements, locals, and IR registers all read as null — the
// same default in the bytecode interpreter and the IR executor (scalar
// replacement relies on this agreement).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindRef
	KindHandle // method handle (resolved function reference)
)

// Value is a runtime value: a 64-bit integer, a float, an object
// reference, a method handle, or null. It is one 16-byte word with a
// single pointer slot (DESIGN.md §10 "Value word and array storage"):
//
//	null    p = nil          n = 0
//	int     p = &tags[0]     n = the integer's bits
//	float   p = &tags[1]     n = the float's IEEE-754 bits
//	ref     p = the *Object  n = KindRef
//	handle  p = the *Method  n = KindHandle   (Handle(nil): p = &tags[2])
//
// The tag addresses are static, so the collector ignores them, and every
// other non-nil p is a real Go pointer it keeps alive. All unsafe code of
// the VM is in this file.
type Value struct {
	p unsafe.Pointer
	n uint64
}

// tags supplies the three static addresses that mark an int, a float and
// the handle of no method. They are read through functions, not pointer
// variables, so that a kind test compares against an address constant.
var tags [3]byte

func tagInt() unsafe.Pointer      { return unsafe.Pointer(&tags[0]) }
func tagFloat() unsafe.Pointer    { return unsafe.Pointer(&tags[1]) }
func tagNoMethod() unsafe.Pointer { return unsafe.Pointer(&tags[2]) }

// Int constructs an integer value.
func Int(v int64) Value { return Value{p: tagInt(), n: uint64(v)} }

// Float constructs a float value.
func Float(v float64) Value { return Value{p: tagFloat(), n: math.Float64bits(v)} }

// Ref constructs an object reference value.
func Ref(o *Object) Value {
	if o == nil {
		return Null()
	}
	return Value{p: unsafe.Pointer(o), n: uint64(KindRef)}
}

// Handle constructs a method-handle value. Handle(nil) is a handle, not
// null: it has KindHandle, is falsy, and yields a nil AsHandle.
func Handle(m *Method) Value {
	if m == nil {
		return Value{p: tagNoMethod(), n: uint64(KindHandle)}
	}
	return Value{p: unsafe.Pointer(m), n: uint64(KindHandle)}
}

// Null constructs the null value.
func Null() Value { return Value{} }

// Kind returns the value's kind.
func (v Value) Kind() Kind {
	switch v.p {
	case nil:
		return KindNull
	case tagInt():
		return KindInt
	case tagFloat():
		return KindFloat
	}
	return Kind(v.n)
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.p == nil }

// isInt and int are the interpreters' integer fast path: a tag compare
// and the raw payload, with no kind switch.
func (v Value) isInt() bool { return v.p == tagInt() }
func (v Value) int() int64  { return int64(v.n) }

func (v Value) float() float64 { return math.Float64frombits(v.n) }

// AsInt returns the integer payload (floats truncate; null is 0).
func (v Value) AsInt() int64 {
	switch v.p {
	case tagInt():
		return v.int()
	case tagFloat():
		return int64(v.float())
	default:
		return 0
	}
}

// AsFloat returns the float payload (ints convert; null is 0).
func (v Value) AsFloat() float64 {
	switch v.p {
	case tagFloat():
		return v.float()
	case tagInt():
		return float64(v.int())
	default:
		return 0
	}
}

// AsRef returns the object reference, or nil.
func (v Value) AsRef() *Object {
	if v.Kind() == KindRef {
		return (*Object)(v.p)
	}
	return nil
}

// AsHandle returns the method handle, or nil.
func (v Value) AsHandle() *Method {
	if v.Kind() == KindHandle && v.p != tagNoMethod() {
		return (*Method)(v.p)
	}
	return nil
}

// Truthy reports whether the value is considered true in branches.
func (v Value) Truthy() bool {
	switch v.Kind() {
	case KindInt:
		return v.n != 0
	case KindFloat:
		return v.float() != 0
	case KindRef:
		return true
	case KindHandle:
		return v.p != tagNoMethod()
	default:
		return false
	}
}

// Equal compares two values for VM-level equality.
func (v Value) Equal(o Value) bool {
	vk, ok := v.Kind(), o.Kind()
	if vk != ok {
		// Numeric cross-kind comparison.
		if (vk == KindInt || vk == KindFloat) && (ok == KindInt || ok == KindFloat) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch vk {
	case KindInt:
		return v.n == o.n
	case KindFloat:
		return v.float() == o.float()
	case KindRef, KindHandle:
		return v.p == o.p
	default:
		return true // null == null
	}
}

func (v Value) String() string {
	switch v.Kind() {
	case KindInt:
		return fmt.Sprintf("%d", v.int())
	case KindFloat:
		return fmt.Sprintf("%g", v.float())
	case KindRef:
		return fmt.Sprintf("ref(%s)", v.AsRef().Class.Name)
	case KindHandle:
		return fmt.Sprintf("handle(%s)", v.AsHandle().QualifiedName())
	default:
		return "null"
	}
}

// Object is a heap object: an instance of a class with field slots, or an
// array (Class == ArrayClass) reached through Len, At and Set.
type Object struct {
	Class  *Class
	Fields []Value
	// Array storage. An array starts in ints, which holds no pointers:
	// the word 0 is null and any other word w is the integer
	// w ^ math.MinInt64. The first store that has no such word — a float,
	// a reference, a handle, or the integer math.MinInt64 itself —
	// converts the array once to vals; ints is nil from then on.
	ints []int64
	vals []Value
	// monitor state for MonitorEnter/Exit (sequential semantics: a
	// recursion counter; the cost model charges the atomic operations).
	monitorDepth int
}

// NewObject allocates an instance of the class with zeroed (null) fields.
func NewObject(c *Class) *Object {
	return &Object{Class: c, Fields: make([]Value, len(c.FieldNames))}
}

// NewArray allocates an array object of n null elements.
func NewArray(n int) *Object {
	return &Object{Class: ArrayClass, ints: make([]int64, n)}
}

// Len returns the number of array elements (0 for a non-array).
func (o *Object) Len() int { return len(o.ints) + len(o.vals) }

// At returns element i; i must be in [0, Len()).
func (o *Object) At(i int) Value {
	if o.vals != nil {
		return o.vals[i]
	}
	return wordValue(o.ints[i])
}

// Set stores v into element i; i must be in [0, Len()).
func (o *Object) Set(i int, v Value) {
	if o.vals == nil {
		if w, ok := v.word(); ok {
			o.ints[i] = w
			return
		}
		o.widen()
	}
	o.vals[i] = v
}

// word returns v's encoding in pointer-free array storage, if it has one.
func (v Value) word() (int64, bool) {
	if v.p == nil {
		return 0, true
	}
	w := v.int() ^ math.MinInt64
	return w, v.isInt() && w != 0
}

func wordValue(w int64) Value {
	if w == 0 {
		return Null()
	}
	return Int(w ^ math.MinInt64)
}

// widen moves the array from ints to vals, in place: every register that
// aliases the array sees the same elements before and after.
func (o *Object) widen() {
	vals := make([]Value, len(o.ints))
	for i, w := range o.ints {
		vals[i] = wordValue(w)
	}
	o.ints, o.vals = nil, vals
}

// ArrayClass is the synthetic class of all arrays.
var ArrayClass = &Class{Name: "[]", FieldNames: nil}
