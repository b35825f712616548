// Command unreached is the reachability gate (`make unreached`): a
// non-test function in a library package stays only if some main package
// (cmd/*, examples/*, bench) links it, or unreached.keep exempts it with
// a reason. It builds every main package with inlining off, unions the
// `go tool nm` symbols under the module path, and fails on a declared
// function in no binary and under no keep prefix, and on a keep entry
// that covers no such function (as `ravelint -allow-audit` does for a
// stale //lint:allow). Generic functions are skipped: their symbols name
// the instantiation. unreached.keep holds `prefix<TAB>reason` lines; a
// prefix matches the full symbol, e.g. repro/internal/netsim. for a
// package. Run from the module root.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// goOutput runs the go tool and returns its standard output.
func goOutput(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

// closureSuffix is what a closure, go/defer wrapper or method value adds.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+|-fm)+$`)

// link builds one main package and adds the module's function symbols in
// it to linked, pointer receivers unwrapped: repro/internal/geom.Mesh.Bounds.
func link(linked map[string]bool, module, pkg, bin string) error {
	if _, err := goOutput("build", "-gcflags=all=-l", "-o", bin, pkg); err != nil {
		return err
	}
	syms, err := goOutput("tool", "nm", bin)
	for _, line := range strings.Split(syms, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && strings.EqualFold(f[1], "t") && strings.HasPrefix(f[2], module+"/") {
			sym := closureSuffix.ReplaceAllString(f[2], "")
			linked[strings.NewReplacer("(*", "", ")", "").Replace(sym)] = true
		}
	}
	return err
}

// declare adds the symbol and position of every non-generic function in
// one non-test file of a library package to decls.
func declare(decls map[string]string, importPath, file string) error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || fn.Type.TypeParams != nil {
			continue
		}
		sym := importPath + "."
		if fn.Recv != nil {
			t := fn.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			id, ok := t.(*ast.Ident)
			if !ok { // a generic receiver, T[K]
				continue
			}
			sym += id.Name + "."
		}
		decls[sym+fn.Name.Name] = fset.Position(fn.Pos()).String()
	}
	return nil
}

func run() error {
	module, err1 := goOutput("list", "-m")
	list, err2 := goOutput("list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	keep, err3 := os.ReadFile("unreached.keep")
	dir, err4 := os.MkdirTemp("", "unreached")
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	linked, decls := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(list, "\n") {
		pkg := strings.Split(line, "\t") // name, import path, dir, files
		if pkg[0] == "main" {
			if err := link(linked, module, pkg[1], filepath.Join(dir, "main")); err != nil {
				return err
			}
			continue
		}
		for _, file := range strings.Fields(pkg[3]) {
			if err := declare(decls, pkg[1], filepath.Join(pkg[2], file)); err != nil {
				return err
			}
		}
	}
	used := map[string]bool{}
	for _, line := range strings.Split(string(keep), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		prefix, reason, ok := strings.Cut(line, "\t")
		if !ok || prefix == "" || strings.TrimSpace(reason) == "" {
			return fmt.Errorf("unreached.keep: %q is not prefix<TAB>reason", line)
		}
		used[prefix] = false
	}
	var findings []string
	for sym, pos := range decls {
		kept := linked[sym]
		for prefix := range used {
			if !linked[sym] && strings.HasPrefix(sym, prefix) {
				used[prefix], kept = true, true
			}
		}
		if !kept {
			findings = append(findings, fmt.Sprintf("%s: %s is linked by no main package and not in unreached.keep", pos, sym))
		}
	}
	for prefix, hit := range used {
		if !hit {
			findings = append(findings, fmt.Sprintf("unreached.keep: %q covers no unlinked function", prefix))
		}
	}
	sort.Strings(findings)
	if len(findings) > 0 {
		return fmt.Errorf("%d finding(s):\n%s", len(findings), strings.Join(findings, "\n"))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}
