// Package surface holds the exported-surface gate and nothing else: every
// exported package-level identifier and method under internal/ must be used
// by a non-test file under cmd/, internal/ or examples/, satisfy an
// interface, or carry a line in testdata/allowlist.txt. Code that only tests
// call belongs in those tests.
package surface

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testSupport lists packages that only _test.go files import (a CI step
// checks that no other file does): their declarations are not product
// surface and their uses are not product callers.
var testSupport = map[string]bool{"internal/testtrace": true}

func TestExportedSurface(t *testing.T) {
	problems, err := scan("../..", "testdata/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Log("move test-only code into its package's _test.go files, delete code nothing calls, " +
			"or add an allowlist line: identifier | item N | reason")
	}
}

// TestGateReportsDeadAndStale runs the scanner on a small module with a
// dead exported function, a dead function and a dead type that only refer
// to themselves, a function only the dead function calls (found on the
// scan's second round), a function only the allowlisted one calls (kept),
// an exported method that only an interface reaches, an allowlisted
// function and two stale allowlist lines: one names a function a product
// file calls, one a function that is gone.
func TestGateReportsDeadAndStale(t *testing.T) {
	got, err := scan("testdata/fixture", "testdata/fixture/allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist line 3: a.Gone is stale: no such exported identifier",
		"allowlist line 4: a.Live is stale: it has a product caller or satisfies an interface",
		"a.Dead: exported, but no non-test file under cmd, internal or examples uses it",
		"a.OnlyDead: exported, but no non-test file under cmd, internal or examples uses it",
		"a.Orphan: exported, but no non-test file under cmd, internal or examples uses it",
		"a.Recursive: exported, but no non-test file under cmd, internal or examples uses it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// scan type-checks every non-test file of the module rooted at root, with
// imports read from compiler export data (go list -export), and returns one
// line per exported identifier under internal/ that nothing uses and the
// allowlist does not excuse, and one per malformed or stale allowlist line.
// A use inside the declaration of an unexcused dead identifier does not
// count, so the scan repeats until a round finds no new dead identifier.
func scan(root, allowlistPath string) ([]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	s := &scanner{
		fset:       token.NewFileSet(),
		pkgs:       map[string]string{},
		declared:   map[string]types.Object{},
		self:       map[string][]span{},
		interfaces: map[string][]*types.Interface{},
		seen:       map[*types.Package]bool{},
	}
	var ours []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		rel, err := filepath.Rel(absRoot, p.Dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		top, _, _ := strings.Cut(rel, "/")
		if testSupport[rel] || (top != "cmd" && top != "internal" && top != "examples") {
			continue
		}
		if top == "internal" {
			s.pkgs[p.ImportPath] = strings.TrimPrefix(rel, "internal/")
		}
		ours = append(ours, p)
	}

	imp := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	s.addInterface(types.Universe.Lookup("error").Type())
	for _, p := range ours {
		if err := s.check(p, imp); err != nil {
			return nil, err
		}
	}

	lines, problems, err := readAllowlist(allowlistPath)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	for _, l := range lines {
		listed[l.key] = true
	}
	dead := s.deadFixedPoint(listed)
	allowed := map[string]bool{}
	for _, l := range lines {
		switch {
		case allowed[l.key]:
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is listed twice", l.n, l.key))
		case s.declared[l.key] == nil:
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is stale: no such exported identifier", l.n, l.key))
		case !dead[l.key]:
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is stale: it has a product caller or satisfies an interface", l.n, l.key))
		default:
			allowed[l.key] = true
		}
	}
	var unexcused []string
	for key := range dead {
		if !allowed[key] {
			unexcused = append(unexcused, key+": exported, but no non-test file under cmd, internal or examples uses it")
		}
	}
	sort.Strings(unexcused)
	return append(problems, unexcused...), nil
}

// deadFixedPoint returns the exported identifiers that no counted use
// reaches and no interface exempts. A use counts unless it lies in the
// identifier's own declaration or in the declaration of an identifier
// already found dead and not listed in the allowlist (what the allowlist
// keeps, it keeps with everything it uses). Each round can only add dead
// identifiers, so the loop ends.
func (s *scanner) deadFixedPoint(listed map[string]bool) map[string]bool {
	dead := map[string]bool{}
	for {
		var ignored []span
		for key := range dead {
			if !listed[key] {
				ignored = append(ignored, s.self[key]...)
			}
		}
		used := map[string]bool{}
		for _, u := range s.uses {
			if !used[u.key] && !s.inSelf(u.key, u.pos) && !within(ignored, u.pos) {
				used[u.key] = true
			}
		}
		grew := false
		for key, obj := range s.declared {
			if !dead[key] && !used[key] && !s.satisfiesInterface(obj) {
				dead[key] = true
				grew = true
			}
		}
		if !grew {
			return dead
		}
	}
}

// span is a source range: an identifier's own declaration, inside which a
// use of it is the declaration referring to itself.
type span struct{ from, to token.Pos }

func within(spans []span, pos token.Pos) bool {
	for _, sp := range spans {
		if sp.from <= pos && pos < sp.to {
			return true
		}
	}
	return false
}

// use is one reference to an identifier under internal/ from a non-test
// file.
type use struct {
	key string
	pos token.Pos
}

type scanner struct {
	fset *token.FileSet
	// pkgs maps the import path of each scanned package under internal/ to
	// its path relative to internal/, the prefix of its identifiers' keys.
	pkgs map[string]string
	// declared maps the key of each exported identifier under internal/
	// ("pkg.Name", or "pkg.Type.Method" for a method) to its object.
	declared map[string]types.Object
	uses     []use
	// self holds, per key, a function's own declaration, or a type's own
	// spec and the receivers of its methods.
	self map[string][]span
	// interfaces indexes every interface type the product can see by the
	// names of its methods.
	interfaces map[string][]*types.Interface
	seen       map[*types.Package]bool
}

// keyOf names obj as the allowlist does, or returns "" for fields, local
// objects and objects declared outside internal/.
func (s *scanner) keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg()
	prefix, ok := s.pkgs[pkg.Path()]
	if !ok {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() == nil {
			return prefix + "." + o.Name()
		}
		if named := receiver(o); named != nil {
			return prefix + "." + named.Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return prefix + "." + obj.Name()
}

// check type-checks one package's non-test files, records the identifiers
// they use and, for a package under internal/, the ones it exports.
func (s *scanner) check(p listedPackage, imp types.Importer) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, s.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			s.addInterface(tv.Type)
		}
	}
	s.addPackageInterfaces(pkg)

	if _, internal := s.pkgs[p.ImportPath]; internal {
		s.declare(pkg, files, info)
	}
	for id, obj := range info.Uses {
		if key := s.keyOf(obj); key != "" {
			s.uses = append(s.uses, use{key, id.Pos()})
		}
	}
	return nil
}

// declare records pkg's exported identifiers and exported methods, and the
// spans of their own declarations.
func (s *scanner) declare(pkg *types.Package, files []*ast.File, info *types.Info) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			s.declared[s.keyOf(obj)] = obj
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						s.declared[s.keyOf(m)] = m
					}
				}
			}
		}
	}
	addSelf := func(obj types.Object, n ast.Node) {
		if key := s.keyOf(obj); key != "" {
			s.self[key] = append(s.self[key], span{n.Pos(), n.End()})
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				addSelf(fn, d)
				if named := receiver(fn); named != nil {
					addSelf(named.Obj(), d.Recv)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						addSelf(info.Defs[ts.Name], ts)
					}
				}
			}
		}
	}
}

// receiver is the named type method f is declared on, or nil.
func receiver(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (s *scanner) inSelf(key string, pos token.Pos) bool { return within(s.self[key], pos) }

func (s *scanner) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		s.interfaces[name] = append(s.interfaces[name], iface)
	}
}

// addPackageInterfaces indexes the interfaces declared at package level in
// pkg and, transitively, in everything it imports.
func (s *scanner) addPackageInterfaces(pkg *types.Package) {
	if s.seen[pkg] {
		return
	}
	s.seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			s.addInterface(tn.Type())
		}
	}
	for _, dep := range pkg.Imports() {
		s.addPackageInterfaces(dep)
	}
}

// satisfiesInterface reports whether obj is a method through which some
// interface the product can see is satisfied: its receiver's method set
// holds every method of an interface that names it. Signatures are compared
// as package-qualified strings, because a package checked from source and
// the same package read from export data are distinct types.Packages.
func (s *scanner) satisfiesInterface(obj types.Object) bool {
	m, ok := obj.(*types.Func)
	if !ok || receiver(m) == nil {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(receiver(m)))
	have := map[string]string{}
	for i := 0; i < mset.Len(); i++ {
		f := mset.At(i).Obj()
		have[f.Name()] = signature(f.Type().(*types.Signature))
	}
	for _, iface := range s.interfaces[m.Name()] {
		all := true
		for i := 0; i < iface.NumMethods() && all; i++ {
			f := iface.Method(i)
			sig, ok := have[f.Name()]
			all = ok && sig == signature(f.Type().(*types.Signature))
		}
		if all {
			return true
		}
	}
	return false
}

// signature renders sig's parameter and result types, without names.
func signature(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path))
			b.WriteByte(',')
		}
		b.WriteByte('|')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

var allowLine = regexp.MustCompile(`^(\S+) \| item (\d+) \| (\S.*)$`)

// allowEntry is one allowlist line: its line number and identifier.
type allowEntry struct {
	n   int
	key string
}

// readAllowlist parses the allowlist, one "identifier | item N | reason"
// per line, '#' comments and blank lines skipped, and reports malformed
// lines. scan reports duplicate and stale ones: an identifier that is gone,
// or that is no longer dead.
func readAllowlist(path string) ([]allowEntry, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []allowEntry
	var problems []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if m := allowLine.FindStringSubmatch(line); m != nil {
			entries = append(entries, allowEntry{n, m[1]})
		} else {
			problems = append(problems, fmt.Sprintf("allowlist line %d: want \"identifier | item N | reason\", got %q", n, line))
		}
	}
	return entries, problems, sc.Err()
}
