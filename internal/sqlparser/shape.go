package sqlparser

import "errors"

// Shapes. A text is a shape plus its values: the shape is the text with
// every literal cut out, and two texts of one shape scan to the same
// tokens except for what their literals spell (DESIGN §6.5). A statement
// parsed once per shape, with a numbered Placeholder where each value
// literal stood, therefore serves every text of the shape: the text's own
// scan says what each placeholder is bound to.

// shapeMark stands in a shape key where a literal stood, followed by the
// literal's token kind. It starts no token — a text holding it outside a
// literal, a comment or a quoted identifier does not scan, and such a text
// has no key — and no scanner rule looks ahead for it.
const shapeMark = 0x01

// ShapeKey returns the scanned text with each integer, float and string
// literal replaced by shapeMark and its token kind, comments included:
// texts with equal keys differ in the spelling of their literals only. The
// key is scratch, valid until Release. It is nil for a text that has no
// shape to share: one that does not scan, one with a client's '?', and any
// statement but SELECT, INSERT, UPDATE and DELETE.
func (p *Parser) ShapeKey() []byte {
	switch p.keyword() {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
	default:
		return nil
	}
	key, from := p.key[:0], int32(0)
	for _, t := range p.toks {
		switch t.kind {
		case TokenInt, TokenFloat, TokenString:
			key = append(append(key, p.src[from:t.start]...), shapeMark, byte(t.kind))
			from = t.end
		case TokenPlaceholder, tokenError:
			return nil
		}
	}
	p.key = append(key, p.src[from:]...)
	return p.key
}

// Template is a statement parsed for its shape: Stmt holds a Placeholder
// for every literal that is a value, numbered in source order, and
// Stmt.NumParams() counts them. It is immutable once parsed.
type Template struct {
	Stmt  Statement
	slots []slot
}

// slot is where a template's placeholder finds its value in a text of the
// template's shape: the index of the literal's token in the text's scan,
// and whether an odd number of unary minus signs was folded into it.
type slot struct {
	tok int32
	neg bool
}

// ErrUnshareable is ParseTemplate's answer for a statement with a literal
// that is structure: part of a SELECT-list expression, which names the
// result column, or of a GROUP BY or ORDER BY item, where a number is a
// column position.
var ErrUnshareable = errors.New("sqlparser: a literal of the statement is structure")

// ParseTemplate parses the scanned text — one ShapeKey gave a key for — as
// the template of its shape. On any error the parser is positioned for
// Parse again.
func (p *Parser) ParseTemplate() (*Template, error) {
	t := &Template{}
	p.tmpl = t
	stmt, err := p.Parse()
	p.tmpl = nil
	if err != nil {
		p.rewind()
		return nil, err
	}
	t.Stmt = stmt
	return t, nil
}

// Value returns what placeholder i of t stands for in the scanned text,
// whose ShapeKey equals that of the text t was parsed from: the value the
// literal there would have had in a parse of this text, or the error.
func (p *Parser) Value(t *Template, i int) (Literal, error) {
	s := t.slots[i]
	lit, err := literalOf(p.src, p.toks[s.tok])
	if err == nil && s.neg {
		lit = negate(p.src, p.toks[s.tok], lit)
	}
	return lit, err
}
