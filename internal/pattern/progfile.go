package pattern

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Cycle-based ATE program files.  The paper: "The test patterns are cycle
// based, which can be applied by external ATE easily."  WriteProgramFile
// streams the translated program as a plain-text tester file — one vector
// line per cycle with drive states (0/1/X) and expected states (L/H/X) —
// and ReadProgramFile loads such a file for replay on the tester model
// (ate.RunRecorded), so the hand-off to a real ATE is a file, exactly as in
// the paper's flow.
//
// Format:
//
//	STEACPROG tam=<w> func=<n> sessions=<k>
//	SESSION <i> cycles=<c>
//	V <tam-drive> <tam-expect> <func-drive> <func-expect> <actions>
//
// Buses render as character vectors ("-" when the bus is empty); actions
// list the per-core scan controls as core:S (shift) or core:C (capture),
// "-" when no core is scanning.

const progMagic = "STEACPROG"

// ErrCycleCount reports a session whose vector lines do not number the
// cycles its header (or the program replaying it) declares: a truncated
// or padded tester file.
var ErrCycleCount = errors.New("pattern: session cycle count mismatch")

// WriteProgramFile streams the whole program to w.
func WriteProgramFile(w io.Writer, prog *Program) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "%s tam=%d func=%d sessions=%d\n",
		progMagic, prog.TamWidth, prog.FuncBus, len(prog.Sessions))
	for _, layout := range prog.Sessions {
		fmt.Fprintf(bw, "SESSION %d cycles=%d\n", layout.Index, layout.Cycles)
		names := layout.ActionNames()
		byName := make([]int, len(names))
		for i := range byName {
			byName[i] = i
		}
		sort.SliceStable(byName, func(a, b int) bool { return names[byName[a]] < names[byName[b]] })
		err := prog.Stream(layout, func(c int, cyc *Cycle) bool {
			bw.WriteString("V ")
			writeBits(bw, &cyc.TamIn, "01X")
			bw.WriteByte(' ')
			writeBits(bw, &cyc.TamExpect, "LHX")
			bw.WriteByte(' ')
			writeBits(bw, &cyc.Func, "01X")
			bw.WriteByte(' ')
			writeBits(bw, &cyc.FuncExpect, "LHX")
			bw.WriteByte(' ')
			writeActions(bw, cyc.Actions, names, byName)
			bw.WriteByte('\n')
			return true
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeBits(bw *bufio.Writer, bus *Bus, alphabet string) {
	if bus.Len() == 0 {
		bw.WriteByte('-')
		return
	}
	for i := 0; i < bus.Len(); i++ {
		bw.WriteByte(alphabet[bus.Get(i)])
	}
}

// writeActions lists the non-idle lanes' controls in core-name order
// (byName orders the lane indices by names).
func writeActions(bw *bufio.Writer, actions []CoreAction, names []string, byName []int) {
	n := 0
	for _, i := range byName {
		if actions[i] == ActIdle {
			continue
		}
		if n > 0 {
			bw.WriteByte(',')
		}
		n++
		bw.WriteString(names[i])
		if actions[i] == ActCapture {
			bw.WriteString(":C")
		} else {
			bw.WriteString(":S")
		}
	}
	if n == 0 {
		bw.WriteByte('-')
	}
}

// RecordedCycle is one parsed vector line.  Its Actions are indexed like
// the session's Cores.
type RecordedCycle struct {
	Cycle
}

// RecordedSession is one parsed session.  Cores names the cores its vector
// lines carry scan controls for, in order of first appearance; a cycle's
// Actions may be shorter than Cores (the cores past its end are idle).
type RecordedSession struct {
	Index  int
	Cores  []string
	Cycles []RecordedCycle
}

// RecordedProgram is a parsed ATE program file.
type RecordedProgram struct {
	TamWidth int
	FuncBus  int
	Sessions []RecordedSession
}

// TotalCycles sums the recorded session lengths.
func (p *RecordedProgram) TotalCycles() int {
	n := 0
	for _, s := range p.Sessions {
		n += len(s.Cycles)
	}
	return n
}

// ReadProgramFile parses a tester file written by WriteProgramFile.
func ReadProgramFile(r io.Reader) (*RecordedProgram, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("pattern: empty program file")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != progMagic {
		return nil, fmt.Errorf("pattern: bad program header %q", sc.Text())
	}
	prog := &RecordedProgram{}
	var err error
	if prog.TamWidth, err = intField(header[1], "tam"); err != nil {
		return nil, err
	}
	if prog.FuncBus, err = intField(header[2], "func"); err != nil {
		return nil, err
	}
	nSessions, err := intField(header[3], "sessions")
	if err != nil {
		return nil, err
	}
	var cur *RecordedSession
	var coreIdx map[string]int // cur's Cores by name
	declared := 0              // cur's header cycle count
	endSession := func() error {
		if cur != nil && len(cur.Cycles) != declared {
			return fmt.Errorf("%w: session %d has %d vector lines, its header says %d",
				ErrCycleCount, cur.Index, len(cur.Cycles), declared)
		}
		return nil
	}
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "SESSION "):
			fields := strings.Fields(text)
			if len(fields) != 3 {
				return nil, fmt.Errorf("pattern: line %d: bad session header", line)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: bad session index", line)
			}
			if err := endSession(); err != nil {
				return nil, err
			}
			if declared, err = intField(fields[2], "cycles"); err != nil {
				return nil, fmt.Errorf("pattern: line %d: %w", line, err)
			}
			prog.Sessions = append(prog.Sessions, RecordedSession{Index: idx})
			cur = &prog.Sessions[len(prog.Sessions)-1]
			coreIdx = make(map[string]int)
		case strings.HasPrefix(text, "V "):
			if cur == nil {
				return nil, fmt.Errorf("pattern: line %d: vector before any session", line)
			}
			rc, err := parseVectorLine(text, prog.TamWidth, prog.FuncBus, cur, coreIdx)
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: %w", line, err)
			}
			cur.Cycles = append(cur.Cycles, rc)
		case strings.TrimSpace(text) == "":
		default:
			return nil, fmt.Errorf("pattern: line %d: unrecognized %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := endSession(); err != nil {
		return nil, err
	}
	if len(prog.Sessions) != nSessions {
		return nil, fmt.Errorf("pattern: header says %d sessions, file has %d",
			nSessions, len(prog.Sessions))
	}
	return prog, nil
}

func intField(s, key string) (int, error) {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k != key {
		return 0, fmt.Errorf("pattern: expected %s=<n>, got %q", key, s)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("pattern: bad %s value %q", key, v)
	}
	return n, nil
}

func parseVectorLine(text string, tamW, funcW int, sess *RecordedSession, coreIdx map[string]int) (RecordedCycle, error) {
	fields := strings.Fields(text)
	if len(fields) != 6 {
		return RecordedCycle{}, fmt.Errorf("want 6 fields, got %d", len(fields))
	}
	type laneAction struct {
		lane int
		act  CoreAction
	}
	var acts []laneAction
	if fields[5] != "-" {
		for _, part := range strings.Split(fields[5], ",") {
			name, code, ok := strings.Cut(part, ":")
			if !ok {
				return RecordedCycle{}, fmt.Errorf("bad action %q", part)
			}
			var act CoreAction
			switch code {
			case "S":
				act = ActShift
			case "C":
				act = ActCapture
			default:
				return RecordedCycle{}, fmt.Errorf("unknown action %q", code)
			}
			k, seen := coreIdx[name]
			if !seen {
				k = len(sess.Cores)
				coreIdx[name] = k
				sess.Cores = append(sess.Cores, name)
			}
			acts = append(acts, laneAction{k, act})
		}
	}
	rc := RecordedCycle{Cycle: *newCycle(tamW, funcW, len(sess.Cores))}
	for _, a := range acts {
		rc.Actions[a.lane] = a.act
	}
	for i, bus := range []struct {
		b        *Bus
		alphabet string
	}{{&rc.TamIn, "01X"}, {&rc.TamExpect, "LHX"}, {&rc.Func, "01X"}, {&rc.FuncExpect, "LHX"}} {
		if err := parseBus(bus.b, fields[1+i], bus.alphabet); err != nil {
			return rc, err
		}
	}
	return rc, nil
}

func parseBus(bus *Bus, s string, alphabet string) error {
	width := bus.Len()
	if s == "-" {
		if width != 0 {
			return fmt.Errorf("empty bus but width %d", width)
		}
		return nil
	}
	if len(s) != width {
		return fmt.Errorf("bus has %d chars, want %d", len(s), width)
	}
	for i := 0; i < width; i++ {
		idx := strings.IndexByte(alphabet, s[i])
		if idx < 0 {
			return fmt.Errorf("invalid char %q (alphabet %s)", string(s[i]), alphabet)
		}
		bus.Set(i, Bit(idx))
	}
	return nil
}
