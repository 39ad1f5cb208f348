package gen

// Model is what one client knows the program has acknowledged: the facts the
// harness checks reads against while it runs, and the WAL against after a
// restart.
type Model struct {
	Comments map[string]string            // asset -> last acknowledged comment
	Grants   map[string]map[string]bool   // asset -> users granted SELECT by the client
	Tags     map[string]map[string]string // asset -> tag -> value
	Created  map[string]bool              // table the client created -> still exists

	alive     []string // created tables that still exist
	grantList []grantRef
	grantAt   map[grantRef]int
}

type grantRef struct{ full, grantee string }

func newModel() *Model {
	return &Model{
		Comments: map[string]string{}, Grants: map[string]map[string]bool{},
		Tags: map[string]map[string]string{}, Created: map[string]bool{},
		grantAt: map[grantRef]int{},
	}
}

func (m *Model) apply(op *Op) {
	switch op.Kind {
	case UpdateAsset:
		m.Comments[op.Full] = op.Comment
	case Grant:
		g := grantRef{op.Full, op.Grantee}
		at, held := m.grantAt[g]
		if m.Grants[op.Full] == nil {
			m.Grants[op.Full] = map[string]bool{}
		}
		switch {
		case !op.Revoke && !held:
			m.grantAt[g] = len(m.grantList)
			m.grantList = append(m.grantList, g)
			m.Grants[op.Full][op.Grantee] = true
		case op.Revoke && held:
			last := m.grantList[len(m.grantList)-1]
			m.grantList[at] = last
			m.grantAt[last] = at
			m.grantList = m.grantList[:len(m.grantList)-1]
			delete(m.grantAt, g)
			delete(m.Grants[op.Full], op.Grantee)
		}
	case SetTag:
		if m.Tags[op.Full] == nil {
			m.Tags[op.Full] = map[string]string{}
		}
		m.Tags[op.Full][op.TagKey] = op.TagVal
	case CreateTable:
		full := op.Full + "." + op.Name
		m.Created[full] = true
		m.alive = append(m.alive, full)
	case DeleteAsset:
		m.Created[op.Full] = false
		for i, a := range m.alive {
			if a == op.Full {
				m.alive[i] = m.alive[len(m.alive)-1]
				m.alive = m.alive[:len(m.alive)-1]
				break
			}
		}
	}
}

// LastAlive names a recently created table that still exists, "" if none.
func (m *Model) LastAlive() string {
	if len(m.alive) == 0 {
		return ""
	}
	return m.alive[len(m.alive)-1]
}
