package verilog

import (
	"fmt"
	"strings"
)

// Print renders a module as canonical Verilog text. The output is
// deterministic: parsing the result and printing it again yields identical
// text. Downstream packages rely on this to identify buggy lines by their
// printed line number and text.
func Print(m *Module) string {
	var pr printer
	pr.module(m)
	return pr.sb.String()
}

// PrintSet renders a source set as canonical Verilog text, one blank line
// between modules. ParseSet(PrintSet(s)) round-trips byte-identically.
func PrintSet(s *SourceSet) string {
	parts := make([]string, len(s.Modules))
	for i, m := range s.Modules {
		parts[i] = Print(m)
	}
	return strings.Join(parts, "\n")
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var pr printer
	return pr.expr(e, 0)
}

type printer struct {
	sb strings.Builder
}

func (pr *printer) writef(format string, args ...any) {
	fmt.Fprintf(&pr.sb, format, args...)
}

func (pr *printer) indent(level int) {
	for i := 0; i < level; i++ {
		pr.sb.WriteString("    ")
	}
}

func (pr *printer) module(m *Module) {
	// Parameter ports are printed in the body, keeping the header simple and
	// line numbering stable.
	pr.writef("module %s (\n", m.Name)
	for i, p := range m.Ports {
		pr.indent(1)
		pr.sb.WriteString(p.Dir.String())
		if p.IsReg {
			pr.sb.WriteString(" reg")
		}
		if p.Range != nil {
			pr.writef(" [%s:%s]", pr.expr(p.Range.Hi, 0), pr.expr(p.Range.Lo, 0))
		}
		pr.writef(" %s", p.Name)
		if i < len(m.Ports)-1 {
			pr.sb.WriteString(",")
		}
		pr.sb.WriteString("\n")
	}
	pr.sb.WriteString(");\n")
	for _, it := range m.Items {
		pr.item(it)
	}
	pr.sb.WriteString("endmodule\n")
}

func (pr *printer) item(it Item) {
	switch x := it.(type) {
	case *CommentItem:
		pr.indent(1)
		pr.writef("// %s\n", x.Text)
	case *ParamDecl:
		pr.indent(1)
		kw := "parameter"
		if x.IsLocal {
			kw = "localparam"
		}
		pr.writef("%s %s = %s;\n", kw, x.Name, pr.expr(x.Value, 0))
	case *NetDecl:
		pr.indent(1)
		pr.sb.WriteString(x.Kind.String())
		if x.Range != nil {
			pr.writef(" [%s:%s]", pr.expr(x.Range.Hi, 0), pr.expr(x.Range.Lo, 0))
		}
		pr.writef(" %s", strings.Join(x.Names, ", "))
		if x.Init != nil {
			pr.writef(" = %s", pr.expr(x.Init, 0))
		}
		pr.sb.WriteString(";\n")
	case *AssignItem:
		pr.indent(1)
		pr.writef("assign %s = %s;\n", pr.expr(x.LHS, 0), pr.expr(x.RHS, 0))
	case *Instance:
		pr.indent(1)
		pr.sb.WriteString(x.Module)
		if len(x.Params) > 0 {
			parts := make([]string, len(x.Params))
			for i, pc := range x.Params {
				parts[i] = fmt.Sprintf(".%s(%s)", pc.Port, pr.expr(pc.Expr, 0))
			}
			pr.writef(" #(%s)", strings.Join(parts, ", "))
		}
		pr.writef(" %s (", x.Name)
		for i, pc := range x.Conns {
			if i > 0 {
				pr.sb.WriteString(", ")
			}
			if x.Positional {
				pr.sb.WriteString(pr.expr(pc.Expr, 0))
			} else {
				pr.writef(".%s(", pc.Port)
				if pc.Expr != nil {
					pr.sb.WriteString(pr.expr(pc.Expr, 0))
				}
				pr.sb.WriteString(")")
			}
		}
		pr.sb.WriteString(");\n")
	case *Always:
		pr.always(x)
	case *Initial:
		pr.indent(1)
		pr.sb.WriteString("initial ")
		pr.stmtInline(x.Body, 1)
	case *PropertyDecl:
		pr.indent(1)
		pr.writef("property %s;\n", x.Name)
		pr.indent(2)
		pr.writef("@(%s %s)", edgeName(x.Clock.Edge), x.Clock.Signal)
		if x.DisableIff != nil {
			pr.writef(" disable iff (%s)", pr.expr(x.DisableIff, 0))
		}
		pr.sb.WriteString("\n")
		pr.indent(2)
		pr.writef("%s;\n", pr.seqExpr(x.Seq))
		pr.indent(1)
		pr.sb.WriteString("endproperty\n")
	case *AssertItem:
		pr.indent(1)
		if x.Label != "" {
			pr.writef("%s: ", x.Label)
		}
		if x.Ref != "" {
			pr.writef("assert property (%s)", x.Ref)
		} else {
			pr.writef("assert property (@(%s %s)", edgeName(x.Clock.Edge), x.Clock.Signal)
			if x.DisableIff != nil {
				pr.writef(" disable iff (%s)", pr.expr(x.DisableIff, 0))
			}
			pr.writef(" %s)", pr.seqExpr(x.Seq))
		}
		if x.ErrMsg != "" {
			pr.writef("\n")
			pr.indent(2)
			pr.writef("else $error(%q)", x.ErrMsg)
		}
		pr.sb.WriteString(";\n")
	}
}

func edgeName(e EdgeKind) string {
	switch e {
	case EdgePos:
		return "posedge"
	case EdgeNeg:
		return "negedge"
	default:
		return ""
	}
}

func (pr *printer) seqExpr(s *SeqExpr) string {
	var sb strings.Builder
	writeSeq := func(terms []SeqTerm) {
		for i, t := range terms {
			// Later terms always carry their ##N separator — including
			// ##0 (same-cycle fusion), which is still a term boundary and
			// must survive reparsing.
			if i > 0 {
				fmt.Fprintf(&sb, " ##%d ", t.DelayFromPrev)
			} else if t.DelayFromPrev > 0 {
				fmt.Fprintf(&sb, "##%d ", t.DelayFromPrev)
			}
			sb.WriteString(pr.expr(t.Expr, 0))
		}
	}
	if s.Impl != ImplNone {
		writeSeq(s.Antecedent)
		if s.Impl == ImplOverlap {
			sb.WriteString(" |-> ")
		} else {
			sb.WriteString(" |=> ")
		}
	}
	writeSeq(s.Consequent)
	return sb.String()
}

func (pr *printer) always(a *Always) {
	pr.indent(1)
	switch a.Kind {
	case AlwaysFF:
		pr.sb.WriteString("always_ff ")
	case AlwaysComb:
		pr.sb.WriteString("always_comb ")
	default:
		pr.sb.WriteString("always ")
	}
	if a.Kind != AlwaysComb {
		if len(a.Events) == 0 {
			pr.sb.WriteString("@(*) ")
		} else {
			pr.sb.WriteString("@(")
			for i, ev := range a.Events {
				if i > 0 {
					pr.sb.WriteString(" or ")
				}
				if name := edgeName(ev.Edge); name != "" {
					pr.writef("%s %s", name, ev.Signal)
				} else {
					pr.sb.WriteString(ev.Signal)
				}
			}
			pr.sb.WriteString(") ")
		}
	}
	pr.stmtInline(a.Body, 1)
}

// stmtInline prints a statement that begins on the current line (after
// "always @(...) " or "else ") at the given indent level.
func (pr *printer) stmtInline(s Stmt, level int) {
	switch x := s.(type) {
	case *Block:
		pr.sb.WriteString("begin")
		if x.Label != "" {
			pr.writef(" : %s", x.Label)
		}
		pr.sb.WriteString("\n")
		for _, sub := range x.Stmts {
			pr.stmt(sub, level+1)
		}
		pr.indent(level)
		pr.sb.WriteString("end\n")
	default:
		pr.sb.WriteString("\n")
		pr.stmt(s, level+1)
	}
}

// stmt prints a statement starting at a fresh line with the given indent.
func (pr *printer) stmt(s Stmt, level int) {
	switch x := s.(type) {
	case *Block:
		pr.indent(level)
		pr.stmtInline(x, level)
	case *NonBlocking:
		pr.indent(level)
		pr.writef("%s <= %s;\n", pr.expr(x.LHS, 0), pr.expr(x.RHS, 0))
	case *Blocking:
		pr.indent(level)
		pr.writef("%s = %s;\n", pr.expr(x.LHS, 0), pr.expr(x.RHS, 0))
	case *If:
		pr.ifChain(x, level, false)
	case *Case:
		pr.indent(level)
		kw := "case"
		if x.IsCasez {
			kw = "casez"
		}
		pr.writef("%s (%s)\n", kw, pr.expr(x.Subject, 0))
		for _, item := range x.Items {
			pr.indent(level + 1)
			if item.Exprs == nil {
				pr.sb.WriteString("default: ")
			} else {
				labels := make([]string, len(item.Exprs))
				for i, e := range item.Exprs {
					labels[i] = pr.expr(e, 0)
				}
				pr.writef("%s: ", strings.Join(labels, ", "))
			}
			pr.caseBody(item.Body, level+1)
		}
		pr.indent(level)
		pr.sb.WriteString("endcase\n")
	}
}

// caseBody prints a case-arm body: simple assignments stay on the label's
// line; blocks open begin/end.
func (pr *printer) caseBody(s Stmt, level int) {
	switch x := s.(type) {
	case *NonBlocking:
		pr.writef("%s <= %s;\n", pr.expr(x.LHS, 0), pr.expr(x.RHS, 0))
	case *Blocking:
		pr.writef("%s = %s;\n", pr.expr(x.LHS, 0), pr.expr(x.RHS, 0))
	case *Block:
		pr.stmtInline(x, level)
	default:
		pr.sb.WriteString("\n")
		pr.stmt(s, level+1)
	}
}

// ifChain prints if / else-if / else chains. Simple one-statement branches
// are printed inline on the same line as their condition; block branches use
// begin/end. cont is true when this if continues an "else".
func (pr *printer) ifChain(x *If, level int, cont bool) {
	if !cont {
		pr.indent(level)
	}
	pr.writef("if (%s) ", pr.expr(x.Cond, 0))
	then := x.Then
	if x.Else != nil && swallowsElse(then) {
		// Dangling else: printed inline, the then-branch's trailing
		// else-less if would capture this if's else on reparse. Wrap it in
		// an explicit begin/end so the printed text keeps the AST's
		// association.
		then = &Block{Stmts: []Stmt{then}, Pos: then.Span()}
	}
	pr.branchBody(then, level)
	if x.Else == nil {
		return
	}
	pr.indent(level)
	pr.sb.WriteString("else ")
	if elif, ok := x.Else.(*If); ok {
		pr.ifChain(elif, level, true)
		return
	}
	pr.branchBody(x.Else, level)
}

// swallowsElse reports whether s, printed inline right before an "else",
// would capture that else on reparse: its trailing if/else-if chain ends in
// an if with no else branch. Blocks and case statements are closed by their
// end/endcase keyword and never capture.
func swallowsElse(s Stmt) bool {
	x, ok := s.(*If)
	if !ok {
		return false
	}
	if x.Else == nil {
		return true
	}
	return swallowsElse(x.Else)
}

func (pr *printer) branchBody(s Stmt, level int) {
	switch b := s.(type) {
	case *Block:
		pr.stmtInline(b, level)
	case *NonBlocking:
		pr.writef("%s <= %s;\n", pr.expr(b.LHS, 0), pr.expr(b.RHS, 0))
	case *Blocking:
		pr.writef("%s = %s;\n", pr.expr(b.LHS, 0), pr.expr(b.RHS, 0))
	case *If:
		pr.sb.WriteString("\n")
		pr.stmt(b, level+1)
	case *Case:
		pr.sb.WriteString("\n")
		pr.stmt(b, level+1)
	default:
		pr.sb.WriteString(";\n")
	}
}

// tight removes the spaces of an already-rendered expression, the style
// used inside bit- and part-select brackets: req[(ptr+1)%3], a[3:0]. A
// space is kept when deleting it would fuse its neighbours into a
// different token: operator pairs ("a & &b" must not become "a&&b", nor
// "a ^ ~b" the xnor "a^~b"), and a ternary '?' after a numeric literal
// ('?' is a valid z-digit, so "4'h1 ? a : b" must not become the
// literal-swallowing "4'h1?a:b").
func tight(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if i > 0 && i+1 < len(s) {
				l, r := s[i-1], s[i+1]
				if (opChar(l) && opChar(r)) || (r == '?' && literalChar(l)) {
					b.WriteByte(' ')
				}
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// opChar reports whether c can begin or end a multi-character operator.
func opChar(c byte) bool {
	switch c {
	case '&', '|', '^', '~', '!', '<', '>', '=', '+', '-', '*', '/', '%':
		return true
	}
	return false
}

// literalChar reports whether c can end a numeric literal, whose digit run
// could otherwise extend over a following '?'.
func literalChar(c byte) bool {
	return c == '_' || c == '\'' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// exprPrec returns the printing precedence of an expression node; larger
// binds tighter. Primaries return 100.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *Ternary:
		return 0
	case *Binary:
		_, prec := binPrecOfOp(x.Op)
		return prec
	case *Unary:
		return 11
	default:
		return 100
	}
}

func binPrecOfOp(op BinaryOp) (BinaryOp, int) {
	switch op {
	case BinLogOr:
		return op, 1
	case BinLogAnd:
		return op, 2
	case BinOr:
		return op, 3
	case BinXor, BinXnor:
		return op, 4
	case BinAnd:
		return op, 5
	case BinEq, BinNe, BinCaseEq, BinCaseNe:
		return op, 6
	case BinLt, BinLe, BinGt, BinGe:
		return op, 7
	case BinShl, BinShr, BinAShr:
		return op, 8
	case BinAdd, BinSub:
		return op, 9
	default:
		return op, 10
	}
}

// expr renders e, inserting parentheses when e binds more loosely than its
// context requires.
func (pr *printer) expr(e Expr, minPrec int) string {
	var s string
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Number:
		return NumberText(x)
	case *StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *Unary:
		s = x.Op.String() + pr.expr(x.X, 12)
		if 11 < minPrec {
			s = "(" + s + ")"
		}
		return s
	case *Binary:
		_, prec := binPrecOfOp(x.Op)
		left := pr.expr(x.X, prec)
		right := pr.expr(x.Y, prec+1)
		s = fmt.Sprintf("%s %s %s", left, x.Op, right)
		if prec < minPrec {
			s = "(" + s + ")"
		}
		return s
	case *Ternary:
		s = fmt.Sprintf("%s ? %s : %s", pr.expr(x.Cond, 1), pr.expr(x.X, 1), pr.expr(x.Y, 0))
		if 0 < minPrec {
			s = "(" + s + ")"
		}
		return s
	case *Index:
		return fmt.Sprintf("%s[%s]", pr.expr(x.X, 100), tight(pr.expr(x.Idx, 0)))
	case *Slice:
		return fmt.Sprintf("%s[%s:%s]", pr.expr(x.X, 100), tight(pr.expr(x.Hi, 0)), tight(pr.expr(x.Lo, 0)))
	case *Concat:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = pr.expr(el, 0)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Repl:
		return fmt.Sprintf("{%s{%s}}", pr.expr(x.Count, 100), pr.expr(x.Elem, 0))
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = pr.expr(a, 0)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(parts, ", "))
	}
	return s
}
