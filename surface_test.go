// Surface tests: every exported name of an internal/ package is reached
// from outside that package, and every `pkg.Name` that README.md and
// DESIGN.md cite still exists. Both read the source with go/parser only.
//
// An exported top-level function, variable, constant or type is reached
// when one of these holds, transitively:
//
//   - a file outside its package names it as pkg.Name: non-test code
//     anywhere in the module, or another package's test (the package's
//     own tests, internal or external, never count);
//   - it is a type that a reached declaration of its package carries: a
//     reached function's signature, a reached var or const's type, an
//     exported field of a reached struct, or an exported method of a
//     reached type;
//   - it is a constant in a parenthesised const block one of whose other
//     constants is reached, so that an iota enumeration stays whole.
//
// Methods are out of scope: an interface can reach them.
package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceDecl is one exported top-level name of a package; build-tag
// variants of the same name share it.
type surfaceDecl struct {
	kind  string       // "func", "var", "const" or "type"
	nodes []ast.Node   // *ast.FuncDecl, *ast.ValueSpec or *ast.TypeSpec
	block *ast.GenDecl // the parenthesised const block, or nil
}

// surfacePkg is one internal/ package: its exported declarations, the
// exported methods of each of its types, and the names reached so far.
type surfacePkg struct {
	name    string
	decls   map[string]*surfaceDecl
	methods map[string][]*ast.FuncDecl
	reached map[string]bool
}

// surface is a scanned module: its internal/ packages by import path.
type surface struct {
	pkgs map[string]*surfacePkg
}

// scanSurface parses every Go file of the module rooted at root (skipping
// testdata and hidden directories) and resolves which exported names of
// its internal/ packages are reached.
func scanSurface(root string) (*surface, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	type parsed struct {
		dir  string // import path of the file's directory
		test bool
		file *ast.File
	}
	var files []parsed
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := mod
		if rel != "." {
			dir = mod + "/" + filepath.ToSlash(rel)
		}
		files = append(files, parsed{dir, strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	s := &surface{pkgs: map[string]*surfacePkg{}}
	for _, pf := range files {
		if pf.test || !strings.HasPrefix(pf.dir, mod+"/internal/") {
			continue
		}
		pkg := s.pkgs[pf.dir]
		if pkg == nil {
			pkg = &surfacePkg{name: pf.file.Name.Name, decls: map[string]*surfaceDecl{},
				methods: map[string][]*ast.FuncDecl{}, reached: map[string]bool{}}
			s.pkgs[pf.dir] = pkg
		}
		pkg.collect(pf.file)
	}

	// Named outside: pkg.Name in a file of another directory.
	for _, pf := range files {
		imports := map[string]string{}
		for _, is := range pf.file.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			local := path.Base(ip)
			if is.Name != nil {
				local = is.Name.Name
			}
			if s.pkgs[ip] != nil && ip != pf.dir {
				imports[local] = ip
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						if _, ok := s.pkgs[ip].decls[sel.Sel.Name]; ok {
							s.pkgs[ip].reached[sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	for _, pkg := range s.pkgs {
		pkg.propagate()
	}
	return s, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// collect records the exported top-level declarations of one non-test file.
func (p *surfacePkg) collect(f *ast.File) {
	add := func(name, kind string, n ast.Node, block *ast.GenDecl) {
		if !ast.IsExported(name) {
			return
		}
		d := p.decls[name]
		if d == nil {
			d = &surfaceDecl{kind: kind, block: block}
			p.decls[name] = d
		}
		d.nodes = append(d.nodes, n)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name.Name, "func", decl, nil)
			} else if ast.IsExported(decl.Name.Name) {
				recv := receiverType(decl.Recv.List[0].Type)
				p.methods[recv] = append(p.methods[recv], decl)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, "type", spec, nil)
				case *ast.ValueSpec:
					var block *ast.GenDecl
					if decl.Tok == token.CONST && decl.Lparen.IsValid() {
						block = decl
					}
					for _, name := range spec.Names {
						add(name.Name, decl.Tok.String(), spec, block)
					}
				}
			}
		}
	}
}

// receiverType is the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// propagate closes the reached set under the carried and enumeration rules.
func (p *surfacePkg) propagate() {
	for changed := true; changed; {
		changed = false
		mark := func(name string) {
			if _, ok := p.decls[name]; ok && !p.reached[name] {
				p.reached[name] = true
				changed = true
			}
		}
		for name, d := range p.decls {
			if !p.reached[name] {
				continue
			}
			for _, n := range d.nodes {
				for _, e := range p.carried(n) {
					p.typeNames(e, mark)
				}
			}
			if d.kind == "type" {
				for _, m := range p.methods[name] {
					p.typeNames(m.Type, mark)
				}
			}
			if d.block != nil {
				for _, spec := range d.block.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						mark(id.Name)
					}
				}
			}
		}
	}
}

// carried lists the type expressions a reached declaration carries.
func (p *surfacePkg) carried(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []ast.Expr{n.Type}
	case *ast.ValueSpec:
		if n.Type != nil {
			return []ast.Expr{n.Type}
		}
		var out []ast.Expr
		for _, v := range n.Values {
			if u, ok := v.(*ast.UnaryExpr); ok {
				v = u.X
			}
			if lit, ok := v.(*ast.CompositeLit); ok && lit.Type != nil {
				out = append(out, lit.Type)
			}
		}
		return out
	case *ast.TypeSpec:
		out := []ast.Expr{}
		if n.TypeParams != nil {
			out = append(out, &ast.FuncType{Params: n.TypeParams})
		}
		switch t := n.Type.(type) {
		case *ast.StructType:
			for _, f := range t.Fields.List {
				exported := len(f.Names) == 0 && ast.IsExported(receiverType(f.Type))
				for _, id := range f.Names {
					exported = exported || ast.IsExported(id.Name)
				}
				if exported {
					out = append(out, f.Type)
				}
			}
		default:
			out = append(out, n.Type)
		}
		return out
	}
	return nil
}

// typeNames calls mark for every identifier in e that may name a type of
// this package: qualified names and field or parameter names are skipped.
func (p *surfacePkg) typeNames(e ast.Node, mark func(string)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Field:
			p.typeNames(n.Type, mark)
			return false
		case *ast.Ident:
			if d, ok := p.decls[n.Name]; ok && d.kind == "type" {
				mark(n.Name)
			}
		}
		return true
	})
}

// unreached lists every exported name of every internal/ package that is
// not reached, as "pkg.Name", sorted.
func (s *surface) unreached() []string {
	var out []string
	for _, pkg := range s.pkgs {
		for name := range pkg.decls {
			if !pkg.reached[name] {
				out = append(out, pkg.name+"."+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// docSpan matches a markdown inline code span; docRef matches a pkg.Name
// reference inside one.
var (
	docSpan = regexp.MustCompile("`[^`\n]+`")
	docRef  = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// unresolvedDocNames lists every `pkg.Name` reference in an inline code
// span of the markdown file at p whose pkg is an internal/ package that
// declares no top-level Name. Fenced code blocks are skipped.
func (s *surface) unresolvedDocNames(p string) ([]string, error) {
	byName := map[string]*surfacePkg{}
	for _, pkg := range s.pkgs {
		byName[pkg.name] = pkg
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var out []string
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, code := range docSpan.FindAllString(line, -1) {
			for _, m := range docRef.FindAllStringSubmatch(code[1:len(code)-1], -1) {
				pkg := byName[m[1]]
				if pkg == nil {
					continue
				}
				if _, ok := pkg.decls[m[2]]; !ok {
					out = append(out, fmt.Sprintf("%s:%d: %s.%s", filepath.Base(p), i+1, m[1], m[2]))
				}
			}
		}
	}
	return out, nil
}

// TestExportedNamesReached fails on every exported name of an internal/
// package that nothing outside the package reaches. There is no
// allowlist: wire such a name in, unexport it, or delete it.
func TestExportedNamesReached(t *testing.T) {
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pkgs) == 0 {
		t.Fatal("no internal/ packages found")
	}
	if names := s.unreached(); len(names) > 0 {
		t.Errorf("%d exported names that nothing outside their package reaches:\n\t%s",
			len(names), strings.Join(names, "\n\t"))
	}
}

// TestDocNamesResolve fails on every `pkg.Name` that README.md or
// DESIGN.md cites for an internal/ package that does not declare it.
func TestDocNamesResolve(t *testing.T) {
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		bad, err := s.unresolvedDocNames(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s names no declaration", b)
		}
	}
}

// TestSurfaceCheckerRules runs the checker on a fixture module with one
// case per rule and compares every verdict.
func TestSurfaceCheckerRules(t *testing.T) {
	s, err := scanSurface(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	a := s.pkgs["fixture/internal/a"]
	if a == nil {
		t.Fatal("fixture package a not scanned")
	}
	for name, want := range map[string]bool{
		"OwnTestOnly":   false, // named only by its own package's test
		"OtherTestOnly": true,  // named by another package's test
		"Make":          true,  // named by a command
		"Carried":       true,  // carried by Make's signature
		"Holder":        true,  // named by a command
		"Hidden":        false, // carried only by Holder's unexported field
		"ModeB":         true,  // named by a command
		"ModeA":         true,  // same const block as ModeB
		"ModeC":         true,  // same const block as ModeB
		"Mode":          true,  // carried by its reached constants' type
		"Variant":       true,  // two build-tag variants, one name
	} {
		if _, ok := a.decls[name]; !ok {
			t.Errorf("%s: not collected", name)
		} else if got := a.reached[name]; got != want {
			t.Errorf("%s: reached = %v, want %v", name, got, want)
		}
	}
	if n := len(a.decls); n != 11 {
		t.Errorf("collected %d exported names of package a, want 11", n)
	}
	if got, want := s.unreached(), []string{"a.Hidden", "a.OwnTestOnly"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", got, want)
	}

	bad, err := s.unresolvedDocNames(filepath.Join("testdata", "surface", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"README.md:3: a.Gone", "README.md:4: a.Missing"}; strings.Join(bad, "|") != strings.Join(want, "|") {
		t.Errorf("unresolved doc names = %q, want %q", bad, want)
	}
}
