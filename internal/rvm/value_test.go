package rvm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestValueWordLayout pins the value word: at most 16 bytes, exactly one
// pointer slot, and a zero word that is null.
func TestValueWordLayout(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	if typ.Size() > 16 {
		t.Errorf("Value is %d bytes, want <= 16", typ.Size())
	}
	pointers := 0
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.UnsafePointer, reflect.Pointer:
			pointers++
		case reflect.Uint64, reflect.Int64:
		default:
			t.Errorf("field %s has kind %s: may hold more pointers", typ.Field(i).Name, k)
		}
	}
	if pointers != 1 {
		t.Errorf("Value has %d pointer slots, want 1", pointers)
	}

	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || zero != Null() || !zero.Equal(Null()) {
		t.Error("the zero Value is not null")
	}
	if zero.Truthy() || zero.AsInt() != 0 || zero.AsFloat() != 0 || zero.AsRef() != nil || zero.AsHandle() != nil {
		t.Error("null accessors wrong")
	}
	if zero.String() != "null" {
		t.Errorf("null prints as %q", zero.String())
	}
}

// TestValueKindsDoNotAlias checks the payloads that share bit patterns
// with tags and discriminators: small ints equal to a Kind, floats whose
// bits are small ints, and the nil handle.
func TestValueKindsDoNotAlias(t *testing.T) {
	obj := NewObject(NewClass("C", nil))
	m := &Method{Name: "f"}
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindRef, KindHandle} {
		v := Int(int64(k))
		if v.Kind() != KindInt || v.AsInt() != int64(k) || v.AsRef() != nil || v.AsHandle() != nil {
			t.Errorf("Int(%d) decodes as kind %d", k, v.Kind())
		}
		f := Float(math.Float64frombits(uint64(k)))
		if f.Kind() != KindFloat || f.AsRef() != nil || f.AsHandle() != nil {
			t.Errorf("Float(bits %d) decodes as kind %d", k, f.Kind())
		}
	}
	if r := Ref(obj); r.Kind() != KindRef || r.AsRef() != obj || r.AsHandle() != nil || r.AsInt() != 0 {
		t.Error("ref decodes wrong")
	}
	if h := Handle(m); h.Kind() != KindHandle || h.AsHandle() != m || h.AsRef() != nil || h.AsInt() != 0 {
		t.Error("handle decodes wrong")
	}
	nh := Handle(nil)
	if nh.Kind() != KindHandle || nh.IsNull() || nh.AsHandle() != nil || nh.Truthy() {
		t.Error("Handle(nil) must be a falsy handle, not null")
	}
	if !nh.Equal(Handle(nil)) || nh.Equal(Null()) || nh.Equal(Handle(m)) || nh.Equal(Int(0)) {
		t.Error("Handle(nil) equality wrong")
	}
	if !Float(math.Copysign(0, -1)).Equal(Float(0)) || Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("float equality must be IEEE, not bitwise")
	}
	if Float(math.Copysign(0, -1)).Truthy() || !Float(math.NaN()).Truthy() {
		t.Error("float truthiness must be f != 0")
	}
	if Int(math.MinInt64).AsInt() != math.MinInt64 || Int(-1).AsFloat() != -1 {
		t.Error("int payload wrong")
	}
}

// arrayOp is one step of the model test: store vals[val] (or, for copy,
// the element at index val) into element idx of array arr.
type arrayOp struct {
	Arr, Idx, Val uint8
	Copy          bool
}

// TestArrayStorageMatchesModel drives arrays through random Set/At/Len
// sequences and checks them against plain []Value models. Two registers
// alias each array, so the one-time move out of pointer-free storage
// must be visible through both.
func TestArrayStorageMatchesModel(t *testing.T) {
	obj := NewObject(NewClass("C", nil))
	m := &Method{Name: "f"}
	vals := []Value{
		Null(), Int(0), Int(-1), Int(1), Int(math.MinInt64), Int(math.MaxInt64), Int(math.MinInt64 + 1),
		Float(0), Float(2.5), Float(math.Float64frombits(1 << 63)),
		Ref(obj), Ref(NewArray(1)), Handle(m), Handle(nil),
	}
	// Every int but one, and null, stay in pointer-free storage.
	for _, v := range vals {
		_, fits := v.word()
		want := v.IsNull() || (v.Kind() == KindInt && v.AsInt() != math.MinInt64)
		if fits != want {
			t.Errorf("word(%v) fits = %v, want %v", v, fits, want)
		}
	}

	const nArrays, length = 3, 5
	check := func(ops []arrayOp) bool {
		var regA, regB [nArrays]Value // two registers per array
		var model [nArrays][]Value
		for i := range model {
			regA[i] = Ref(NewArray(length))
			regB[i] = regA[i]
			model[i] = make([]Value, length)
		}
		for step, op := range ops {
			ai, idx := int(op.Arr)%nArrays, int(op.Idx)%length
			v := vals[int(op.Val)%len(vals)]
			if op.Copy {
				v = regB[ai].AsRef().At(int(op.Val) % length)
			}
			// Store through one register, observe through the other.
			w, r := regA[ai].AsRef(), regB[ai].AsRef()
			if step%2 == 1 {
				w, r = r, w
			}
			w.Set(idx, v)
			model[ai][idx] = v
			for i := range model {
				o := regA[i].AsRef()
				if i == ai {
					o = r
				}
				if o.Len() != length {
					t.Errorf("step %d: Len = %d", step, o.Len())
					return false
				}
				for j, want := range model[i] {
					if got := o.At(j); got != want { // bit-for-bit, not VM equality
						t.Errorf("step %d: array %d[%d] = %v, want %v", step, i, j, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}

	// A null overwrite after the move, and an array that never moves.
	o := NewArray(2)
	o.Set(0, Float(1))
	o.Set(0, Null())
	o.Set(1, Int(7))
	if !o.At(0).IsNull() || o.At(1).AsInt() != 7 || o.ints != nil {
		t.Error("widened array lost a store")
	}
	z := NewArray(0)
	if z.Len() != 0 || NewObject(NewClass("D", nil, "x")).Len() != 0 {
		t.Error("empty array / non-array length wrong")
	}
}
