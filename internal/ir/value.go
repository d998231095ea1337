// Package ir defines the program representation for DCatch-Go subject
// systems: a small imperative language with explicit shared-memory accesses,
// threads, FIFO event queues, synchronous RPC, asynchronous socket messages,
// lock-based critical sections and ZooKeeper-style coordination calls.
//
// The IR plays the role Java bytecode plays in the original DCatch paper:
// the runtime (internal/rt) interprets it while emitting the trace records
// of Table 2, and the static analyses (internal/analysis) compute call
// graphs, dependence and failure-impact information over it — standing in
// for Javassist and WALA respectively.
package ir

import (
	"fmt"
	"strconv"
)

// ValueKind enumerates the dynamic types of IR values.
type ValueKind uint8

// Value kinds.
const (
	KNull ValueKind = iota
	KInt
	KStr
	KBool
)

// Value is a dynamically typed IR value. It carries no provenance: the
// focused second run that resolves pull-based custom synchronization
// (paper §3.2.1: "the new trace will tell us which write w* provides value
// for the last instance of r") records the providing write on each probed
// read's trace record instead (trace.Rec.WriterSeq).
type Value struct {
	K ValueKind
	I int64
	S string
	B bool
}

// Null returns the null value.
func Null() Value { return Value{K: KNull} }

// IntV returns an integer value.
func IntV(i int64) Value { return Value{K: KInt, I: i} }

// StrV returns a string value.
func StrV(s string) Value { return Value{K: KStr, S: s} }

// BoolV returns a boolean value.
func BoolV(b bool) Value { return Value{K: KBool, B: b} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.K == KNull }

// Truthy reports whether v counts as true in a condition: true booleans,
// non-zero integers, non-empty strings. Null is false.
func (v Value) Truthy() bool {
	switch v.K {
	case KBool:
		return v.B
	case KInt:
		return v.I != 0
	case KStr:
		return v.S != ""
	default:
		return false
	}
}

// Eq reports value equality.
func (v Value) Eq(o Value) bool {
	if v.K != o.K {
		// Allow comparing anything against null.
		return false
	}
	switch v.K {
	case KNull:
		return true
	case KInt:
		return v.I == o.I
	case KStr:
		return v.S == o.S
	default:
		return v.B == o.B
	}
}

// String renders the value for diagnostics and for use as a dynamic map key
// inside heap locations (e.g. jMap[job_1]).
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "null"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KStr:
		return v.S
	default:
		return strconv.FormatBool(v.B)
	}
}

// GoString implements fmt.GoStringer for clearer test failures.
func (v Value) GoString() string { return fmt.Sprintf("ir.Value(%s)", v.String()) }
