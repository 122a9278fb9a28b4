package term

import "strings"

// OpType is a standard Prolog operator type.
type OpType uint8

const (
	XFX OpType = iota
	XFY
	YFX
	FY
	FX
)

// Op is one operator definition.
type Op struct {
	Prio int
	Type OpType
}

// Infix returns the highest priority the left and right arguments of an
// infix operator may have.
func (o Op) Infix() (left, right int) {
	left, right = o.Prio-1, o.Prio-1
	switch o.Type {
	case XFY:
		right = o.Prio
	case YFX:
		left = o.Prio
	}
	return left, right
}

// Operand returns the highest priority the argument of a prefix operator
// may have.
func (o Op) Operand() int {
	if o.Type == FX {
		return o.Prio - 1
	}
	return o.Prio
}

// InfixOps and PrefixOps are the standard operator table: the reader parses
// operator notation with it and write/1 prints with it. Prefix and infix
// definitions are kept apart, as ISO allows an atom to be both (e.g. '-').
// Both maps are read-only.
var (
	InfixOps = map[string]Op{
		":-": {1200, XFX}, "-->": {1200, XFX},
		";":  {1100, XFY},
		"->": {1050, XFY},
		",":  {1000, XFY},
		"=":  {700, XFX}, "\\=": {700, XFX}, "==": {700, XFX},
		"\\==": {700, XFX}, "is": {700, XFX}, "=:=": {700, XFX},
		"=\\=": {700, XFX}, "<": {700, XFX}, ">": {700, XFX},
		"=<": {700, XFX}, ">=": {700, XFX}, "@<": {700, XFX},
		"@>": {700, XFX}, "@=<": {700, XFX}, "@>=": {700, XFX},
		"=..": {700, XFX},
		"+":   {500, YFX}, "-": {500, YFX}, "/\\": {500, YFX},
		"\\/": {500, YFX}, "xor": {500, YFX},
		"*": {400, YFX}, "/": {400, YFX}, "//": {400, YFX},
		"mod": {400, YFX}, "rem": {400, YFX}, "<<": {400, YFX},
		">>": {400, YFX},
		"**": {200, XFX}, "^": {200, XFY},
	}
	PrefixOps = map[string]Op{
		":-": {1200, FX}, "?-": {1200, FX},
		"\\+": {900, FY},
		"-":   {200, FY}, "+": {200, FY}, "\\": {200, FY},
	}
)

// SymbolChars are the characters symbolic atoms are made of.
const SymbolChars = "+-*/\\^<>=~:.?@#&$"

// IsSymbolChar reports whether c is one of SymbolChars.
func IsSymbolChar(c byte) bool { return strings.IndexByte(SymbolChars, c) >= 0 }
