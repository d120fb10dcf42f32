"""Out-of-order core: fetch, rename, timestamp-ordered issue, execute,
in-order commit, with branch squash and a load/store queue.

Scheduling rules that keep committed timing independent of transient
execution:

* issue is strictly oldest-ready-first by timestamp, so younger ops can
  never displace older ones from issue slots or pipelined units;
* non-pipelined units (the divider) issue speculative ops in timestamp
  order: a speculative op may start only once every older live op of the
  same class has started (``Protection.inorder_divider``);
* a squash frees non-pipelined units held by squashed ops
  (``squash_frees_divider``) and cancels their in-flight misses
  (``squash_cancels_misses``), so rollback cost is a constant independent
  of how much transient work was discarded;
* the branch predictor and BTB are trained at commit only.

``config.PROTECTION`` says which switches each protection mode turns on.

The committed timeline - (sequence, pc, opcode, per-stage cycles,
architectural result) for every committed instruction - is the
observable over which noninterference is checked.
"""

from collections import deque

from . import isa
from .isa import MASK64, MUL, DIV, LOAD, STORE, BRANCH, JMP, RDCYCLE, FENCE, HALT, NOP
from .order import TimestampAllocator

# commit_mem of a store or replay whose commit-time access waits for a
# callback: no cycle is ever late enough to retire it
WAITING = float("inf")


def s64(v):
    v &= MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


class DynInstr:
    __slots__ = (
        "pc", "op", "cls", "dst", "s1", "s2", "imm", "target",
        "ts", "state", "stage", "dep1", "dep2", "v1", "v2",
        "result", "addr", "line", "pred_taken", "taken", "done_at",
        "origin", "noncoherent", "akey", "ablated",
        "div_unit", "commit_mem",
    )

    def __init__(self, si, ts):
        self.pc = si.pc
        self.op = si.op
        self.cls = si.cls
        self.dst = si.dst
        self.s1 = si.s1
        self.s2 = si.s2
        self.imm = si.imm
        self.target = si.target
        self.ts = ts
        self.state = "FETQ"       # FETQ ROB EXEC DONE COMMITTED SQUASHED
        self.stage = {}
        self.dep1 = None
        self.dep2 = None
        self.v1 = 0
        self.v2 = 0
        self.result = None
        self.addr = None
        self.line = None
        self.pred_taken = False
        self.taken = False
        self.done_at = None
        self.origin = None
        self.noncoherent = False
        self.akey = None
        self.ablated = False
        self.div_unit = None
        self.commit_mem = None    # store/replay: None | ready cycle | WAITING


_DONE_AT_RENAME = (NOP, JMP, FENCE, HALT)


class Core:
    def __init__(self, core_id, program, cfg, mem, machine, ablation=None):
        self.core_id = core_id
        self.program = program
        self.cfg = cfg
        self.mem = mem
        self.machine = machine
        self.ablation = ablation
        self.prot = cfg.protection

        self.alloc = TimestampAllocator(cfg.window, cfg.debug_unbounded_ts)
        self.regs = [0] * isa.NUM_REGS
        self.rat = {}
        self.rob = deque()
        self.fetchq = deque()
        self.lq_used = 0
        self.sq_used = 0

        self.pc = 0
        self.fetch_stall_until = 0
        self.fetch_done = False
        self.line_buf = None
        self.line_req = None      # line requested, not yet in line_buf
        self.line_ready_at = None # its ready cycle; None while it is missing

        self.bp_counters = {}
        self.btb = {}

        self.div_busy = [0] * cfg.div_units

        self.fetch_seq = 0
        self.rename_count = 0
        self.commit_count = 0
        # ablation bookkeeping: dynamic instances are identified by
        # (core, epoch, position-within-epoch), where an epoch is the span
        # between two squashes.  Within an epoch the renamed instruction
        # sequence is deterministic, so the key lines up across the normal
        # and the ablated run even when wrong-path *lengths* differ.
        self.epoch = 0
        self.epoch_pos = 0
        self.committed_keys = set()   # akeys of committed instructions
        self.squash_log = {}   # akey of squashing instr -> (cycle, redirect)
        self.timeline = []
        self.halted = False

        self.line_mask = ~(cfg.line_bytes - 1)
        # instruction lines live in a per-core region of the physical
        # address space, so two cores' images never alias in the shared L2
        self.code_base = core_id << 32

    def _iline(self, pc):
        return (pc & self.line_mask) + self.code_base

    # ----------------------------------------------------------------- fetch

    def _predict(self, pc):
        ctr = self.bp_counters.get(pc, 1)
        return ctr >= 2 and pc in self.btb

    def do_fetch(self, cycle):
        if self.fetch_done or self.halted or cycle < self.fetch_stall_until:
            return False
        cfg = self.cfg
        fetched = 0
        progress = False
        while (fetched < cfg.width and len(self.fetchq) < cfg.fetchq
               and self.alloc.live < cfg.rob):
            raw_line = self.pc & self.line_mask
            line = self._iline(self.pc)
            if self.line_buf != line:
                if self.line_req == line and self.line_ready_at is not None \
                        and cycle >= self.line_ready_at:
                    self.line_buf = line
                    self.line_req = None
                    self.line_ready_at = None
                    progress = True
                    continue
                if self.line_req is None:
                    self.line_req = line
                    self.line_ready_at = self.mem.ifetch_access(
                        self.core_id, line, self.alloc.next, cycle)
                    progress = True
                break
            si = self.program.get(self.pc)
            di = DynInstr(si, self.alloc.allocate())
            self.fetch_seq += 1
            di.stage["fetch"] = cycle
            self.fetchq.append(di)
            fetched += 1
            if si.cls == BRANCH:
                di.pred_taken = self._predict(si.pc)
                if di.pred_taken:
                    self.pc = si.target
                    break
                self.pc += isa.INSTR_BYTES
            elif si.cls == JMP:
                self.pc = si.target
                break
            elif si.cls == HALT:
                self.fetch_done = True
                break
            else:
                self.pc += isa.INSTR_BYTES
            if self.pc & self.line_mask != raw_line:
                break
        return progress or fetched > 0

    # ---------------------------------------------------------------- rename

    def do_rename(self, cycle):
        """Returns whether anything was renamed."""
        cfg = self.cfg
        budget = cfg.width
        while budget and self.fetchq:
            di = self.fetchq[0]
            if len(self.rob) >= cfg.rob:
                break
            if di.cls == FENCE and self.rob:
                break
            if di.cls == LOAD and self.lq_used >= cfg.lq:
                break
            if di.cls == STORE and self.sq_used >= cfg.sq:
                break
            self.fetchq.popleft()
            self.rename_count += 1
            di.akey = (self.core_id, self.epoch, self.epoch_pos)
            self.epoch_pos += 1
            di.stage["rename"] = cycle
            di.state = "ROB"
            if di.cls == LOAD:
                self.lq_used += 1
            elif di.cls == STORE:
                self.sq_used += 1
            self.rob.append(di)
            budget -= 1
            if self.ablation is not None \
                    and di.akey not in self.ablation["committed"]:
                # transient-ablation: a would-be-squashed op becomes a
                # zero-latency no-op.  It keeps its class so front-end
                # resource accounting (LQ/SQ slots, fence drains) matches
                # the normal run; it never executes.  A branch that caused
                # a squash in the normal run replays that squash verbatim
                # (same cycle, same redirect) to reproduce the wrong-path
                # fetch stream.
                di.ablated = True
                event = self.ablation["events"].get(di.akey)
                if di.cls == BRANCH and event is not None:
                    di.state = "EXEC"
                    di.stage["issue"] = cycle
                    di.done_at = event[0]
                else:
                    di.state = "DONE"
                    di.stage["issue"] = cycle
                    di.stage["complete"] = cycle
                continue
            # unused source fields are r0, which is never renamed
            di.dep1 = self.rat.get(di.s1)
            di.dep2 = self.rat.get(di.s2)
            if di.cls in _DONE_AT_RENAME:
                di.state = "DONE"
                di.stage["issue"] = cycle
                di.stage["complete"] = cycle
            if di.dst:
                self.rat[di.dst] = di
        return budget < cfg.width

    # ----------------------------------------------------------------- issue

    def _ready(self, dep):
        return dep is None or dep.state in ("DONE", "COMMITTED")

    def _val(self, dep, reg):
        if dep is not None:
            return dep.result
        return self.regs[reg]

    def do_issue(self, cycle):
        """Returns whether anything was issued.  Issue adds or removes no
        ROB entry, so it walks the ROB in place."""
        cfg = self.cfg
        budget = cfg.width
        alu_slots = cfg.alu_units
        mul_slots = cfg.mul_units
        mem_slots = cfg.mem_ports
        div_blocked = False
        pending_store = False   # an older store without known address/data
        head = self.rob[0] if self.rob else None

        for di in self.rob:
            if budget == 0:
                break
            if di.state != "ROB":
                continue
            if di.cls == STORE:
                if alu_slots and self._ready(di.dep1) and self._ready(di.dep2):
                    di.v1 = self._val(di.dep1, di.s1)
                    di.v2 = self._val(di.dep2, di.s2)
                    di.addr = s64(di.v1 + di.imm) & ~(isa.WORD_BYTES - 1)
                    di.line = di.addr & self.line_mask
                    di.result = di.v2          # value to be written at commit
                    di.state = "EXEC"
                    di.stage["issue"] = cycle
                    di.done_at = cycle + 1
                    alu_slots -= 1
                    budget -= 1
                else:
                    pending_store = True
                continue
            if di.cls == LOAD:
                if not mem_slots or not self._ready(di.dep1):
                    continue
                if pending_store:
                    continue   # conservative: wait for older store addresses
                fwd = self._forward_store(di)
                di.v1 = self._val(di.dep1, di.s1)
                di.addr = s64(di.v1 + di.imm) & ~(isa.WORD_BYTES - 1)
                di.line = di.addr & self.line_mask
                di.stage["issue"] = cycle
                mem_slots -= 1
                budget -= 1
                if fwd is not None:
                    di.result = fwd.result
                    di.origin = "fwd"
                    di.state = "EXEC"
                    di.done_at = cycle + 1
                    continue
                spec = di is not head
                hit = self.mem.data_access(self.core_id, di, di.line,
                                           di.ts, spec, cycle)
                di.state = "EXEC"   # a miss keeps done_at None until its callback
                if hit is not None:
                    di.done_at, di.origin, di.noncoherent = hit
                continue
            # register-to-register classes
            if not (self._ready(di.dep1) and self._ready(di.dep2)):
                if di.cls == DIV:
                    div_blocked = True
                continue
            if di.cls == DIV:
                if div_blocked and di is not head and self.prot.inorder_divider:
                    continue
                unit = next((u for u in range(cfg.div_units)
                             if self.div_busy[u] <= cycle), None)
                if unit is None:
                    div_blocked = True
                    continue
                lat = cfg.div_lat
                di.div_unit = unit
                self.div_busy[unit] = cycle + lat
            elif di.cls == MUL:
                if not mul_slots:
                    continue
                lat = cfg.mul_lat
                mul_slots -= 1
            else:   # ALU, BRANCH, RDCYCLE
                if not alu_slots:
                    continue
                lat = cfg.alu_lat
                alu_slots -= 1
            di.v1 = self._val(di.dep1, di.s1)
            di.v2 = self._val(di.dep2, di.s2) + di.imm
            if di.cls == RDCYCLE:
                di.result = cycle
            elif di.cls != BRANCH:   # a branch resolves when it completes
                di.result = s64(isa.OPS[di.op](di.v1, di.v2))
            di.state = "EXEC"
            di.stage["issue"] = cycle
            di.done_at = cycle + lat
            budget -= 1
        return budget < cfg.width

    def _forward_store(self, di):
        """Youngest older store to the same word.  Only called once every
        older store has executed, so all addresses and data are known."""
        addr = s64(self._val(di.dep1, di.s1) + di.imm) & ~(isa.WORD_BYTES - 1)
        best = None
        for other in self.rob:
            if other is di:
                break
            if other.cls == STORE and other.state != "SQUASHED" and other.addr == addr:
                best = other
        return best

    # -------------------------------------------------------------- complete

    def do_complete(self, cycle):
        """Returns whether anything completed.  A squash pops the ROB
        tail, so it walks a copy."""
        progress = False
        for di in list(self.rob):
            if di.state != "EXEC" or di.done_at is None or di.done_at > cycle:
                continue
            progress = True
            di.state = "DONE"
            di.stage["complete"] = cycle
            if di.ablated:
                # replayed squash from the recorded run (ablated branch)
                cyc, redirect = self.ablation["events"][di.akey]
                self._squash_after(di, cycle, redirect)
                continue
            if di.cls == LOAD and di.origin != "fwd":
                di.result = self.machine.read_word(di.addr)
            if di.cls == BRANCH:
                self._resolve_branch(di, cycle)
                if di.state == "SQUASHED":   # a just-resolved older branch wiped us
                    continue
        return progress

    def mem_ready(self, di, line, cycle, origin, noncoherent):
        """A miss was delivered to ``di``, or to the instruction fetch of
        ``line`` when ``di`` is None."""
        if di is None:
            if self.line_req == line:
                self.line_buf = line
                self.line_req = None
                self.line_ready_at = None
        elif di.commit_mem == WAITING:   # committing store or replay
            di.commit_mem = cycle
        elif di.state == "EXEC":         # else squashed while in flight
            di.result = self.machine.read_word(di.addr)
            di.origin = origin
            di.noncoherent = noncoherent
            di.state = "DONE"
            di.stage["complete"] = cycle

    def mem_retry(self, di):
        """The access found no free miss register, or its miss was
        cancelled: make it again."""
        if di is None:
            self.line_req = None
        elif di.commit_mem == WAITING:
            di.commit_mem = None
        elif di.state == "EXEC":
            di.state = "ROB"
            di.done_at = None

    # ---------------------------------------------------------------- branch

    def _resolve_branch(self, di, cycle):
        di.taken = isa.BRANCH_CONDS[di.op](di.v1, di.v2)
        if di.taken != di.pred_taken:
            self._squash_after(di, cycle,
                               di.target if di.taken else di.pc + isa.INSTR_BYTES)

    def _squash_after(self, di, cycle, redirect_pc):
        """Wipe everything younger than ``di`` and restart fetch at
        ``redirect_pc`` after the fixed penalty.  The ROB is in program
        order, so the younger instructions are its tail."""
        while self.rob[-1] is not di:
            other = self.rob.pop()
            other.state = "SQUASHED"
            if other.cls == LOAD:
                self.lq_used -= 1
            elif other.cls == STORE:
                self.sq_used -= 1
            if other.div_unit is not None and self.prot.squash_frees_divider \
                    and self.div_busy[other.div_unit] > cycle:
                self.div_busy[other.div_unit] = cycle
        self.epoch += 1
        self.epoch_pos = 0
        self.squash_log[di.akey] = (cycle, redirect_pc)
        self.fetchq.clear()
        self.alloc.rewind(di.ts, len(self.rob))
        self.mem.squash_flush(self.core_id, di.ts)
        self.rat = {}
        for other in self.rob:
            if other.dst:
                self.rat[other.dst] = other
        self.pc = redirect_pc
        self.fetch_stall_until = cycle + self.cfg.squash_penalty
        self.fetch_done = False
        self.line_buf = None
        self.line_req = None
        self.line_ready_at = None

    # ---------------------------------------------------------------- commit

    def do_commit(self, cycle):
        """Returns whether anything committed or started its commit-time
        access."""
        cfg = self.cfg
        commits = 0
        progress = False
        while commits < cfg.width and self.rob and not self.halted:
            di = self.rob[0]
            if di.state != "DONE":
                break
            # a store writes, and a load that consumed a non-coherent
            # copy is replayed, before either may retire
            if (di.cls == STORE or self._replays(di)) and not di.ablated:
                if di.commit_mem is None:
                    if di.cls == STORE:
                        self.machine.write_word(di.addr, di.result)
                        ready = self.mem.store_access(self.core_id, di, di.line, cycle)
                    else:
                        ready = self.mem.replay_access(self.core_id, di, di.line, cycle)
                    di.commit_mem = WAITING if ready is None else ready
                    progress = True
                if cycle < di.commit_mem:
                    break
                fresh = self.machine.read_word(di.addr)
                if di.cls == LOAD and fresh != di.result:
                    # the forwarded value went stale: re-execute with the
                    # fresh value and restart everything younger
                    di.result = fresh
                    self._squash_after(di, cycle, di.pc + isa.INSTR_BYTES)
            self._commit_one(di, cycle)
            commits += 1
        return progress or commits > 0

    def _replays(self, di):
        """Commit-time replay: a load that consumed a non-coherent copy
        reissues its access non-speculatively at commit, and re-executes
        everything younger if the value it read went stale."""
        return di.noncoherent

    def next_event(self, cycle):
        """Earliest cycle after ``cycle`` at which a stage may move without
        a memory callback: the end of a fetch stall, an instruction line
        or a divider becoming ready, an instruction finishing, or the ROB
        head's commit-time access completing.  inf if there is none."""
        if self.halted:
            return WAITING
        times = [self.fetch_stall_until, *self.div_busy]
        if self.line_ready_at is not None:
            times.append(self.line_ready_at)
        for di in self.rob:
            if di.state == "EXEC" and di.done_at is not None:
                times.append(di.done_at)
        if self.rob and self.rob[0].commit_mem is not None:
            times.append(self.rob[0].commit_mem)
        return min((t for t in times if t > cycle), default=WAITING)

    def _commit_one(self, di, cycle):
        di.state = "COMMITTED"
        self.committed_keys.add(di.akey)
        if not di.ablated:
            self.mem.commit_extract(self.core_id, "i", self._iline(di.pc), di.ts)
            if di.cls == LOAD:
                if not di.noncoherent:
                    self.mem.commit_extract(self.core_id, "d", di.line, di.ts)
                if di.origin not in (None, "fwd"):
                    self.mem.prefetch_notify(di.pc, di.line, di.origin, cycle)
            elif di.cls == BRANCH:
                ctr = self.bp_counters.get(di.pc, 1)
                self.bp_counters[di.pc] = min(ctr + 1, 3) if di.taken else max(ctr - 1, 0)
                if di.taken:
                    self.btb[di.pc] = di.target
        if di.dst:
            self.regs[di.dst] = di.result
            if self.rat.get(di.dst) is di:
                del self.rat[di.dst]
        if di.cls == LOAD:
            self.lq_used -= 1
        elif di.cls == STORE:
            self.sq_used -= 1
        stages = (di.stage["fetch"], di.stage["rename"], di.stage["issue"],
                  di.stage["complete"], cycle)
        result = di.result if (di.dst or di.cls == STORE) else None
        self.timeline.append((self.commit_count, di.pc, di.op, stages, result))
        self.commit_count += 1
        self.alloc.retire(1)
        self.rob.popleft()
        if di.cls == HALT:
            self.halted = True
