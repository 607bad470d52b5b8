package yashme_test

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
	"sort"
	"strings"
	"testing"
)

// TestExportedFunctionsHaveCallers fails on any exported function or method
// declared in a non-test file under internal/ that nothing but tests uses:
// an operation no driver, CLI, example, service or perfbench run calls
// cannot add a race to any table. A function counts as used when a
// non-test file of this module or of the perfbench module refers to it,
// when it is one of the methods that let its type satisfy an interface the
// program sees, or when testdata/deadapi_allow.txt lists it. The allowlist
// only shrinks: an entry that is now used, or no longer exists, fails too.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	allow, err := readAllowlist("testdata/deadapi_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale, err := findDeadAPI([]string{".", "perfbench"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, move it into a _test.go file, or call it", d)
	}
	for _, s := range stale {
		t.Errorf("testdata/deadapi_allow.txt: %s; drop the entry", s)
	}
}

// TestDeadAPICheckerOnTinyModule runs the checker over testdata/deadmod,
// whose internal/lib declares one function of each kind the gate tells
// apart, and whose allowlist holds one stale entry.
func TestDeadAPICheckerOnTinyModule(t *testing.T) {
	allow, err := readAllowlist("testdata/deadmod/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale, err := findDeadAPI([]string{"testdata/deadmod"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, d := range dead {
		reported[strings.Fields(d)[0]] = true
	}
	for _, s := range stale {
		reported[strings.Fields(s)[0]] = true
	}
	for _, tc := range []struct {
		key, why string
		want     bool
	}{
		{"lib.Dead", "no caller but itself", true},
		{"lib.TestOnly", "only lib_test.go calls it", true},
		{"lib.Gone", "stale allowlist entry: no such function", true},
		{"lib.Called", "main.go calls it", false},
		{"lib.Celsius.String", "satisfies fmt.Stringer", false},
		{"lib.Kept", "listed in the allowlist and uncalled", false},
	} {
		if reported[tc.key] != tc.want {
			t.Errorf("%s (%s): reported = %v, want %v", tc.key, tc.why, reported[tc.key], tc.want)
		}
		delete(reported, tc.key)
	}
	for key := range reported {
		t.Errorf("%s reported but not expected", key)
	}
}

// readAllowlist reads "pkg.Name  # reason" lines; blank lines and lines
// starting with # are comments. Every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, "#")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if strings.ContainsAny(key, " \t") || reason == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name  # reason\", got %q", path, n, line)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

// listedPkg is the part of `go list -json` output the checker reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// goList lists the packages of the module at dir and all their
// dependencies, dependencies first, with export data for each.
func goList(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// findDeadAPI type-checks, once each and from source, the non-test files
// of every package in the modules at dirs (the first is the one whose
// internal/ packages are scanned); the standard library comes from export
// data. It returns the exported functions and methods under internal/
// that nothing outside tests uses and allow does not list, and the allow
// entries that are used or no longer exist, each with a position or a
// reason.
func findDeadAPI(dirs []string, allow map[string]string) (dead, stale []string, err error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	var order []listedPkg
	seen := map[string]bool{}
	mainModule := ""
	for i, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkgs {
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if i == 0 && mainModule == "" && p.Module != nil {
				mainModule = p.Module.Path
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	type decl struct {
		key string
		fn  *types.Func
		pos token.Position
	}
	var decls []decl
	used := map[*types.Func]bool{}
	// byMethod indexes by method name every interface the program can
	// see: error, the ones the checked packages and their imports
	// declare, and the ones their code spells out.
	byMethod := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams() != nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, lp := range order {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		scanned := strings.HasPrefix(lp.ImportPath, mainModule+"/internal/")
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name].(*types.Func)
					if scanned && fd.Name.IsExported() {
						decls = append(decls, decl{funcKey(self), self, fset.Position(fd.Pos())})
					}
				}
				// A function's references to itself do not keep it alive.
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); !ok || named.TypeParams() != nil {
			return false
		}
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		live := used[d.fn] || satisfies(d.fn)
		_, listed := allow[d.key]
		switch {
		case !live && !listed:
			dead = append(dead, fmt.Sprintf("%s (%s)", d.key, d.pos))
		case live && listed:
			stale = append(stale, fmt.Sprintf("%s is used (%s)", d.key, d.pos))
		}
	}
	for key := range allow {
		if !declared[key] {
			stale = append(stale, key+" no longer exists")
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// funcKey names a function "pkg.Name" and a method "pkg.Type.Name".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}
