package vm

import (
	"blog/internal/term"
	"blog/internal/unify"
)

// cursor walks one compound's argument list during head matching.
type cursor struct {
	args []term.Term
	i    int
}

// Machine is the per-engine emulator scratch: a register file over the
// current clause's variable slots plus the argument cursor stack. It is
// owned by exactly one Expander (parallel workers each own one), so a
// Machine is never shared between goroutines.
type Machine struct {
	regs  []term.Term
	frame *term.Frame
	cc    *CClause
	stack []cursor
	// Pool and CPool, when set, supply activation frames and the compounds
	// of body-goal and write-mode instantiation, which the owner reclaims
	// by releasing each pool to a mark it took (see term.FramePool).
	// Trail-store runs set them.
	Pool  *term.FramePool
	CPool *term.CompoundPool
	// Cells, where Pool and CPool are not set, supplies frames and
	// compounds that are never recycled: a persistent-Env run's slabs. Nil
	// allocates them from the heap.
	Cells *term.Cells
}

// Resolve runs the clause's head code against a resolved goal under env.
// On success it returns the extended environment; the register file then
// holds the activation (captured goal subterms and any fresh variables)
// for BodyGoal to build body goals from. Each Resolve call resets the
// machine, so candidates must have their body goals built before the
// next candidate is tried.
func (m *Machine) Resolve(env *term.Env, goal term.Term, cc *CClause) (*term.Env, bool) {
	m.cc = cc
	m.frame = nil
	if cap(m.regs) < cc.nslots {
		m.regs = make([]term.Term, cc.nslots)
	} else {
		m.regs = m.regs[:cc.nslots]
		for i := range m.regs {
			m.regs[i] = nil
		}
	}
	m.stack = m.stack[:0]
	if gc, ok := goal.(*term.Compound); ok {
		m.stack = append(m.stack, cursor{args: gc.Args})
	}
	code := cc.code
	for pc := 0; pc < len(code); pc++ {
		ins := &code[pc]
		arg := m.next(env)
		switch ins.op {
		case opConst:
			c := cc.pool[ins.idx]
			switch a := arg.(type) {
			case *term.Var:
				// The constant is ground, so the bind passes the
				// occurs check trivially.
				env = env.Bind(a, c)
			case term.Atom:
				if ca, ok := c.(term.Atom); !ok || ca != a {
					return env, false
				}
			case term.Int:
				if ci, ok := c.(term.Int); !ok || ci != a {
					return env, false
				}
			default:
				// Ground compound constant vs a (possibly partially
				// bound) compound argument: full unify decides.
				var ok bool
				if env, ok = unify.Unify(env, arg, c); !ok {
					return env, false
				}
			}
		case opVarF:
			m.regs[ins.idx] = arg
		case opVarR:
			var ok bool
			if env, ok = unify.Unify(env, arg, m.regs[ins.idx]); !ok {
				return env, false
			}
		case opStruct:
			switch a := arg.(type) {
			case *term.Compound:
				if a.Functor != ins.fn || len(a.Args) != int(ins.n) {
					return env, false
				}
				m.stack = append(m.stack, cursor{args: a.Args})
			case *term.Var:
				// Write mode: instantiate the whole sub-skeleton (which
				// fills first-occurrence registers with fresh variables),
				// bind the goal variable to it, and skip the subtree's
				// instructions. A captured register inside inst may embed
				// the goal variable itself, so the bind goes through the
				// unifier's occurs check.
				inst := m.inst(&cc.skels[ins.idx])
				var ok bool
				if env, ok = unify.Unify(env, a, inst); !ok {
					return env, false
				}
				pc += int(ins.skip)
			default:
				return env, false
			}
		}
	}
	return env, true
}

// next consumes the next argument position in cursor order, resolved
// under env. The compiler guarantees one consuming instruction per
// argument position, so the stack never underflows.
func (m *Machine) next(env *term.Env) term.Term {
	top := &m.stack[len(m.stack)-1]
	for top.i >= len(top.args) {
		m.stack = m.stack[:len(m.stack)-1]
		top = &m.stack[len(m.stack)-1]
	}
	a := top.args[top.i]
	top.i++
	return env.Resolve(a)
}

// reg returns the term held by a slot, minting the activation's fresh
// variable for a slot never captured from the goal. The frame is minted
// lazily, at most once per activation, and covers every slot so print
// names and slot indexes line up with the tree-walking activation.
func (m *Machine) reg(slot int32) term.Term {
	if t := m.regs[slot]; t != nil {
		return t
	}
	if m.frame == nil {
		if m.Pool != nil {
			m.frame = m.Pool.Get(m.cc.names)
		} else {
			m.frame = m.Cells.Frame(m.cc.names)
		}
	}
	v := m.frame.Var(int(slot))
	m.regs[slot] = v
	return v
}

// inst builds a term from a compiled skeleton over the register file:
// ground nodes are shared verbatim, slots resolve through reg.
func (m *Machine) inst(s *snode) term.Term {
	switch s.kind {
	case sGround:
		return s.ground
	case sSlot:
		return m.reg(s.slot)
	default:
		var c *term.Compound
		if m.CPool != nil {
			c = m.CPool.Get(s.fn, len(s.args))
		} else {
			c = m.Cells.Compound(s.fn, len(s.args))
		}
		for i := range s.args {
			c.Args[i] = m.inst(&s.args[i])
		}
		return c
	}
}

// BodyGoal builds the i-th body goal of the clause most recently resolved
// by this machine, over its register file.
func (m *Machine) BodyGoal(i int) term.Term {
	return m.inst(&m.cc.body[i])
}
