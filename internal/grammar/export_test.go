package grammar

// OracleParse is the old reader (readoracle_test.go), for the
// differential tests of the external test package.
var OracleParse = oracleParse

// Op is one Builder call: Terminal(Names...), Precedence(Assoc,
// Names...), RuleWithPrec(Name, Prec, Names...), Start(Name),
// ExpectSR(N) or ExpectRR(N), by Kind.
type Op struct {
	Kind  string // "term", "prec", "rule", "start", "sr" or "rr"
	Assoc Assoc
	Name  string
	Prec  string
	Names []string
	N     int
}

// BuildBoth replays ops on a Builder and on the old builder and builds
// both.
func BuildBoth(name string, ops []Op) (got, want *Grammar, gotErr, wantErr error) {
	b, o := NewBuilder(name), newOracleBuilder(name)
	for _, op := range ops {
		switch op.Kind {
		case "term":
			b.Terminal(op.Names...)
			o.Terminal(op.Names...)
		case "prec":
			b.Precedence(op.Assoc, op.Names...)
			o.Precedence(op.Assoc, op.Names...)
		case "rule":
			b.RuleWithPrec(op.Name, op.Prec, op.Names...)
			o.RuleWithPrec(op.Name, op.Prec, op.Names...)
		case "start":
			b.Start(op.Name)
			o.Start(op.Name)
		case "sr":
			b.ExpectSR(op.N)
			o.ExpectSR(op.N)
		case "rr":
			b.ExpectRR(op.N)
			o.ExpectRR(op.N)
		default:
			panic("unknown op " + op.Kind)
		}
	}
	got, gotErr = b.Build()
	want, wantErr = o.Build()
	return got, want, gotErr, wantErr
}
