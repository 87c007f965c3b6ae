// Command sendcheck is a vet-style audit of discarded channel-send
// results. Endpoint sends report failure through typed errors
// (core.ErrMailboxFull, core.ErrPoolEmpty); silently discarding one
// hides lost messages, which is exactly how the early netactors and
// XMPP bugs looked. Every deliberate discard must carry
// a `//sendcheck:ok` marker on the same line (or the line above),
// which doubles as a prompt to justify the shed in a comment.
//
// Flagged shapes, for any method whose name starts with "Send":
//
//	_ = ep.Send(msg)            // blank-assigned result
//	sent, _ = ep.SendBatch(b)   // blank error in a multi-assign
//	ep.Send(msg)                // bare call, result dropped
//
// Usage: go run ./cmd/sendcheck ./...
// Exits 1 when an unmarked discard is found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const marker = "sendcheck:ok"

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"./..."}
	}
	var files []string
	for _, root := range roots {
		dir, recursive := root, false
		if strings.HasSuffix(root, "/...") {
			dir, recursive = strings.TrimSuffix(root, "/..."), true
		}
		if dir == "" {
			dir = "."
		}
		files = append(files, goFiles(dir, recursive)...)
	}

	bad := 0
	for _, path := range files {
		bad += checkFile(path)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "sendcheck: %d discarded send result(s) without //%s\n", bad, marker)
		os.Exit(1)
	}
}

func goFiles(dir string, recursive bool) []string {
	var out []string
	if !recursive {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fatalf("%v", err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				out = append(out, filepath.Join(dir, e.Name()))
			}
		}
		return out
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		fatalf("%v", err)
	}
	return out
}

// checkFile reports the number of unmarked discards in one file.
func checkFile(path string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		fatalf("%v", err)
	}
	lines := strings.Split(string(src), "\n")
	marked := func(line int) bool { // 1-based
		for _, l := range []int{line, line - 1} {
			if l >= 1 && l <= len(lines) && strings.Contains(lines[l-1], marker) {
				return true
			}
		}
		return false
	}

	bad := 0
	flag := func(pos token.Pos, call string) {
		p := fset.Position(pos)
		if marked(p.Line) {
			return
		}
		fmt.Printf("%s:%d: result of %s discarded without //%s\n", p.Filename, p.Line, call, marker)
		bad++
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			name, ok := sendCall(st.Rhs[0])
			if !ok {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					flag(st.Pos(), name)
					break
				}
			}
		case *ast.ExprStmt:
			if name, ok := sendCall(st.X); ok {
				flag(st.Pos(), name)
			}
		}
		return true
	})
	return bad
}

// sendCall reports whether expr is a method call whose name starts
// with "Send" (Send, SendBatch, ...).
func sendCall(expr ast.Expr) (string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Send") {
		return "", false
	}
	return sel.Sel.Name, true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sendcheck: "+format+"\n", args...)
	os.Exit(1)
}
