// Package word defines the tagged machine word used throughout the SYMBOL
// pipeline. It mirrors the register organization of the prototype processor
// described in section 5.2 of the paper: every word carries a value field, a
// small tag field identifying the Prolog data type, and a cdr bit (kept for
// WAM compatibility; unused by the compiler but preserved by the datapath).
//
// The simulated machine is 64 bits wide: bits 61..63 hold the tag, bit 60
// holds the cdr bit, bits 0..59 hold the value. Integer values are stored as
// 60-bit two's complement; pointer values are word addresses into the
// simulated memory.
package word

import "fmt"

// Tag identifies the Prolog type of a word.
type Tag uint8

// The tag space. Ref must be zero so that zeroed memory reads as unbound
// self-references only after explicit initialization; the emulator treats a
// Ref word whose value equals its own address as an unbound variable.
const (
	Ref  Tag = iota // reference / unbound variable (value = address)
	Int             // 60-bit signed integer (value = two's complement)
	Atom            // atom (value = atom-table index)
	Lst             // list cell pointer (value = address of 2-word cons)
	Str             // structure pointer (value = address of functor cell)
	Fun             // functor cell (value = atom index<<16 | arity)
	Code            // code address (value = instruction index)
	NumTags
)

var tagNames = [NumTags]string{"ref", "int", "atm", "lst", "str", "fun", "cod"}

// String returns the conventional short mnemonic for the tag.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// W is one tagged machine word.
type W uint64

const (
	tagShift  = 61
	cdrBit    = 1 << 60
	valueMask = (1 << 60) - 1
	signBit   = 1 << 59
)

// Make builds a word from a tag and an unsigned value (pointer, atom index,
// functor encoding or code address). The value must fit in 60 bits.
func Make(t Tag, v uint64) W {
	return W(uint64(t)<<tagShift | v&valueMask)
}

// MakeInt builds an integer word from a signed value, truncating to 60 bits.
func MakeInt(v int64) W {
	return W(uint64(Int)<<tagShift | uint64(v)&valueMask)
}

// MakeFun builds a functor cell for atom index a and arity n.
func MakeFun(a uint32, n int) W {
	return Make(Fun, uint64(a)<<16|uint64(n)&0xffff)
}

// MakeRef builds a reference word pointing at address a. An unbound variable
// at address a is represented as MakeRef(a) stored at a itself.
func MakeRef(a uint64) W { return Make(Ref, a) }

// Tag extracts the tag field.
func (w W) Tag() Tag { return Tag(w >> tagShift) }

// WithCdr returns the word with the cdr bit set.
func (w W) WithCdr() W { return w | cdrBit }

// Val extracts the raw unsigned 60-bit value field.
func (w W) Val() uint64 { return uint64(w) & valueMask }

// Ptr extracts the value field interpreted as a word address.
func (w W) Ptr() uint64 { return uint64(w) & valueMask }

// Int extracts the value field interpreted as a signed 60-bit integer.
func (w W) Int() int64 {
	v := uint64(w) & valueMask
	if v&signBit != 0 {
		v |= ^uint64(valueMask) // sign extend
	}
	return int64(v)
}

// FunAtom extracts the atom index from a functor cell.
func (w W) FunAtom() uint32 { return uint32(w.Val() >> 16) }

// FunArity extracts the arity from a functor cell.
func (w W) FunArity() int { return int(w.Val() & 0xffff) }

// WithTag returns the word with its tag replaced by t, value preserved.
// This models the prototype's tag-insertion datapath operation.
func (w W) WithTag(t Tag) W {
	return W(uint64(t)<<tagShift | uint64(w)&(valueMask|cdrBit))
}

// String formats the word for listings and debugging.
func (w W) String() string {
	switch w.Tag() {
	case Int:
		return fmt.Sprintf("int:%d", w.Int())
	case Fun:
		return fmt.Sprintf("fun:%d/%d", w.FunAtom(), w.FunArity())
	default:
		return fmt.Sprintf("%s:%#x", w.Tag(), w.Val())
	}
}
