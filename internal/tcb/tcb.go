// Package tcb models the paper's TCB-minimization step (§IV.2): given the
// full driver function inventory and the minimal set identified by tracing,
// build the reduced "OP-TEE image" that would result from conditionally
// compiling out every unneeded function, and quantify the reduction.
//
// Two build policies are provided, reflecting the engineering trade-off the
// paper's approach implies:
//
//   - Exact: include exactly the traced functions. Smallest image, but an
//     untraced path (e.g. an error handler) would be missing.
//   - StaticClosure: include the traced functions plus everything reachable
//     from them in the static call graph. Safe superset.
package tcb

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the package.
var (
	// ErrUnknownFunction is returned when a set references an unregistered
	// function.
	ErrUnknownFunction = errors.New("tcb: unknown function")
	// ErrMissingCallee is returned by Exact builds whose call graph escapes
	// the included set.
	ErrMissingCallee = errors.New("tcb: image missing statically required callee")
	// ErrDuplicate is returned when registering the same function twice.
	ErrDuplicate = errors.New("tcb: duplicate function")
)

// FuncMeta describes one driver function for size accounting.
type FuncMeta struct {
	Name   string
	Module string // driver sub-module, e.g. "clock", "pcm", "usb-audio"
	LoC    int    // source lines
	Bytes  int    // compiled size
}

// Table is the full function inventory plus the static call graph.
type Table struct {
	funcs map[string]FuncMeta
	graph map[string][]string
	order []string // registration order, for stable output
}

// NewTable creates an empty inventory.
func NewTable() *Table {
	return &Table{
		funcs: make(map[string]FuncMeta),
		graph: make(map[string][]string),
	}
}

// Add registers a function and its static callees. Callees may be
// registered later; Validate resolves forward references.
func (t *Table) Add(m FuncMeta, callees ...string) error {
	if _, ok := t.funcs[m.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, m.Name)
	}
	t.funcs[m.Name] = m
	t.graph[m.Name] = append([]string(nil), callees...)
	t.order = append(t.order, m.Name)
	return nil
}

// Validate checks that every call-graph edge targets a registered function.
func (t *Table) Validate() error {
	for fn, callees := range t.graph {
		for _, c := range callees {
			if _, ok := t.funcs[c]; !ok {
				return fmt.Errorf("%w: %s called by %s", ErrUnknownFunction, c, fn)
			}
		}
	}
	return nil
}

// Len returns the number of registered functions.
func (t *Table) Len() int { return len(t.funcs) }

// Meta returns a function's metadata.
func (t *Table) Meta(name string) (FuncMeta, bool) {
	m, ok := t.funcs[name]
	return m, ok
}

// Callees returns a copy of a function's static callees.
func (t *Table) Callees(name string) []string {
	return append([]string(nil), t.graph[name]...)
}

// Functions returns all function names in registration order.
func (t *Table) Functions() []string {
	return append([]string(nil), t.order...)
}

// Modules returns the distinct module names, sorted.
func (t *Table) Modules() []string {
	set := make(map[string]bool)
	for _, m := range t.funcs {
		set[m.Module] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Closure returns the set of functions reachable from roots through the
// static call graph (including the roots).
func (t *Table) Closure(roots []string) (map[string]bool, error) {
	out := make(map[string]bool)
	stack := make([]string, 0, len(roots))
	for _, r := range roots {
		if _, ok := t.funcs[r]; !ok {
			return nil, fmt.Errorf("%w: root %s", ErrUnknownFunction, r)
		}
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[fn] {
			continue
		}
		out[fn] = true
		stack = append(stack, t.graph[fn]...)
	}
	return out, nil
}

// Policy selects how an image is assembled from a traced set.
type Policy int

const (
	// Exact includes exactly the traced functions.
	Exact Policy = iota + 1
	// StaticClosure includes the traced functions plus static reachability.
	StaticClosure
)

// Image is a (possibly reduced) driver build destined for the OP-TEE image.
type Image struct {
	Name       string
	Policy     Policy
	Funcs      []FuncMeta // sorted by name
	TotalLoC   int
	TotalBytes int
}

// Contains reports whether the image includes the named function.
func (img Image) Contains(name string) bool {
	for _, f := range img.Funcs {
		if f.Name == name {
			return true
		}
	}
	return false
}

// FullImage returns the image containing every registered function — the
// "port the whole driver" baseline the paper argues against.
func (t *Table) FullImage() Image {
	include := make(map[string]bool, len(t.funcs))
	for n := range t.funcs {
		include[n] = true
	}
	img, _ := t.assemble("full", Exact, include) // full set is trivially closed
	return img
}

// BuildImage assembles an image from the traced minimal set under policy.
// Under Exact, a statically-required callee outside the set is an error
// (the conditional compilation would produce an undefined reference).
func (t *Table) BuildImage(name string, traced map[string]bool, p Policy) (Image, error) {
	for fn := range traced {
		if _, ok := t.funcs[fn]; !ok {
			return Image{}, fmt.Errorf("%w: traced %s", ErrUnknownFunction, fn)
		}
	}
	include := traced
	if p == StaticClosure {
		roots := make([]string, 0, len(traced))
		for fn := range traced {
			roots = append(roots, fn)
		}
		closed, err := t.Closure(roots)
		if err != nil {
			return Image{}, err
		}
		include = closed
	} else {
		for fn := range traced {
			for _, callee := range t.graph[fn] {
				if !traced[callee] {
					return Image{}, fmt.Errorf("%w: %s -> %s", ErrMissingCallee, fn, callee)
				}
			}
		}
	}
	return t.assemble(name, p, include)
}

func (t *Table) assemble(name string, p Policy, include map[string]bool) (Image, error) {
	img := Image{Name: name, Policy: p}
	for fn := range include {
		m, ok := t.funcs[fn]
		if !ok {
			return Image{}, fmt.Errorf("%w: %s", ErrUnknownFunction, fn)
		}
		img.Funcs = append(img.Funcs, m)
		img.TotalLoC += m.LoC
		img.TotalBytes += m.Bytes
	}
	sort.Slice(img.Funcs, func(i, j int) bool { return img.Funcs[i].Name < img.Funcs[j].Name })
	return img, nil
}

// ExcludeDirectives returns the conditional-compilation flags that strip
// every function outside the image, modelling the paper's "conditional
// compiler directives to selectively exclude driver functions".
func (t *Table) ExcludeDirectives(img Image) []string {
	inImage := make(map[string]bool, len(img.Funcs))
	for _, f := range img.Funcs {
		inImage[f.Name] = true
	}
	var out []string
	for _, fn := range t.order {
		if !inImage[fn] {
			out = append(out, "-DCONFIG_EXCLUDE_"+toUpperSnake(fn))
		}
	}
	return out
}

func toUpperSnake(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
			out = append(out, c-'a'+'A')
		case c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Reduction quantifies full-vs-minimal image shrinkage.
type Reduction struct {
	FullFuncs, MinFuncs   int
	FullLoC, MinLoC       int
	FullBytes, MinBytes   int
	FuncCutPct, LoCCutPct float64
	BytesCutPct           float64
}

// Compare computes the reduction from full to min.
func Compare(full, min Image) Reduction {
	r := Reduction{
		FullFuncs: len(full.Funcs), MinFuncs: len(min.Funcs),
		FullLoC: full.TotalLoC, MinLoC: min.TotalLoC,
		FullBytes: full.TotalBytes, MinBytes: min.TotalBytes,
	}
	if r.FullFuncs > 0 {
		r.FuncCutPct = 100 * float64(r.FullFuncs-r.MinFuncs) / float64(r.FullFuncs)
	}
	if r.FullLoC > 0 {
		r.LoCCutPct = 100 * float64(r.FullLoC-r.MinLoC) / float64(r.FullLoC)
	}
	if r.FullBytes > 0 {
		r.BytesCutPct = 100 * float64(r.FullBytes-r.MinBytes) / float64(r.FullBytes)
	}
	return r
}

// ModuleBreakdown sums LoC per module for an image, sorted by module name.
type ModuleLoC struct {
	Module string
	Funcs  int
	LoC    int
}

// Breakdown returns per-module totals for the image.
func Breakdown(img Image) []ModuleLoC {
	agg := make(map[string]*ModuleLoC)
	for _, f := range img.Funcs {
		m, ok := agg[f.Module]
		if !ok {
			m = &ModuleLoC{Module: f.Module}
			agg[f.Module] = m
		}
		m.Funcs++
		m.LoC += f.LoC
	}
	out := make([]ModuleLoC, 0, len(agg))
	for _, m := range agg {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Module < out[j].Module })
	return out
}
