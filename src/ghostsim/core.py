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
* the branch predictor is trained at commit only.

``config.PROTECTION`` says which switches each protection mode turns on.

Issue is wake-up driven, after the gem5 O3 instruction queue: each
renamed instruction counts its sources that have not completed, and its
producers list it as a consumer.  When an instruction completes, the
consumers it was the last wait of join the ready list, which is kept in
stamp order; a load whose miss is retried rejoins it in order.  A core
orders its live instructions by ``ts`` directly: the ROB and the fetch
queue hold consecutive stamps (a squash restarts stamping after the
squashing instruction), so stamp order is program order, and the stamps
compared are always fewer than ``rob`` apart.
Issue walks only the ready list, oldest first.  The two rules that look
at older instructions that are *not* ready - a load waits behind an
older store that has not issued, and a speculative divide behind an
older divide - scan the store and divide queues, which hold the live
stores and divides in stamp order, as the load queue holds the loads.
A load reads the store queue once, youngest first: the same pass that
finds an older store not yet issued finds the youngest older store to
its word, which forwards its data.
Complete and ``next_event`` read the in-flight list (issued, finish
cycle known) instead of the ROB.  A squash pops the squashed tail of
every list, as it does the ROB's.  An instruction line is a fetch stall
until it is ready: a hit until its ready cycle, a missed line until its
``mem_ready`` (``fetch_stall_until`` is ``WAITING`` meanwhile), as
gem5's O3 fetch records an outstanding I-cache miss as its status.
Memory calls a load back only while its miss is outstanding: its target
sits on exactly one miss register or waiter list from its issue until
the delivery (``mem_ready``) or retry (``mem_retry``) that takes it off.
So a callback outside a commit-time access finds the load issued and not
completed, and asks only whether a squash took it meanwhile.  A callback
only records: a delivered load takes its value (read at delivery, since
another core's commit may write the word before this core's stages run)
and joins the in-flight list, due that cycle, and ``do_complete``
finishes it in program order with everything else due, as gem5's O3
writeback does for a cache response.  Every executed instruction
completes there.

A dynamic instruction points at its shared, read-only ``StaticInstr``
(``di.si``), as gem5's ``DynInst`` does, and keeps only what execution
adds; a data line is derived where it is used (``addr & line_mask``),
and its state is its stage cycles and a ``squashed`` flag.

``step`` runs one cycle of the stages, in the order complete, commit,
issue, rename, fetch, and its docstring states when each is called.
The stages are the per-instruction hot path.  Each reads the fields it
uses into locals once per call, writes its counters back once, and calls
no one-line helper.  What stays a call has a reason to: the stages, the
``MemorySystem`` accesses, ``commit_extract`` and ``squash_flush`` and
the ``GhostCache`` operations are the layers the benchmark's tracer
wraps and times (``tests/test_stage_gates.py`` checks that each is still
called); ``_replays`` is patched by the mutant matrix and a test, and is
asked only for a load, the one class that can read a non-coherent
copy.
Commit free-slots an instruction line only when no earlier commit of the
same call left that line in the L1I: nothing a commit does takes a line
out of the L1I, so the call would only re-touch its most recently used
line.

The committed timeline - one flat record ``(pc, opcode, fetched,
renamed, issued, completed, committed, result)`` per committed
instruction, whose commit number is its index in ``Core.timeline`` - is
the observable over which noninterference is checked.
"""

from bisect import insort
from collections import deque
from operator import attrgetter

from . import isa
from .isa import (s64, INSTR_BYTES, WORD_BYTES, MUL, DIV, LOAD, STORE, BRANCH,
                  JMP, RDCYCLE, FENCE, HALT, NOP)

# commit_mem of a store or replay whose commit-time access waits for a
# callback, and fetch_stall_until while a missed instruction line does:
# no cycle is ever late enough
WAITING = float("inf")

_TS = attrgetter("ts")
_WORD = ~(WORD_BYTES - 1)   # a data address's word-aligned part


class DynInstr:
    """One fetched instance of a ``StaticInstr``.  Once renamed, it waits
    to issue while ``issued`` is None (a retried miss clears it again),
    executes until ``completed`` is set and is then done; a squash sets
    ``squashed``, the one fact beside its stage cycles.  Its producer
    links (``dep1``, ``dep2``) and consumer links are dropped when it
    completes, so a committed instruction is freed when it leaves the ROB
    and a run holds only its window and its timeline."""

    __slots__ = (
        "si", "ts", "squashed", "fetched", "renamed", "issued", "completed",
        "dep1", "dep2", "result", "addr", "pred_taken", "taken", "done_at",
        "from_below", "noncoherent", "akey", "ablated", "div_unit",
        "commit_mem", "waits", "consumers",
    )

    def __init__(self, si, ts, cycle):
        # si is the shared StaticInstr; the other slots are what execution
        # adds, and only those read before a stage writes them are set
        # here.  Rename sets akey, renamed, dep1 and dep2; issue sets
        # issued, addr, taken, from_below (mem_ready, for a miss) and a
        # forwarded load's result (mem_ready, a delivered one's);
        # completion sets completed.  Rename
        # itself sets issued for an ablated instruction, and completed
        # too for one done at rename.  A committed instruction keeps its
        # stage cycles; a squashed one keeps those it reached.
        self.si = si
        self.ts = ts
        self.fetched = cycle
        self.issued = self.completed = None
        self.squashed = False
        self.result = None
        self.pred_taken = False
        self.noncoherent = False
        self.ablated = False
        self.div_unit = None
        self.commit_mem = None    # store/replay: None | ready cycle | WAITING
        self.waits = 0            # sources not yet completed
        self.done_at = None
        self.consumers = []       # renamed instructions reading our result


_DONE_AT_RENAME = (NOP, JMP, FENCE, HALT)


class Core:
    def __init__(self, core_id, program, cfg, mem, words, normal=None):
        self.core_id = core_id
        self.program = program
        self.cfg = cfg
        self.mem = mem
        self.words = words        # the machine's memory: address -> word
        self.normal = normal      # this core in the normal run, when ablated
        self.prot = cfg.protection

        self.next_ts = 0          # the stamp the next fetched instruction takes
        self.regs = [0] * isa.NUM_REGS
        self.rat = {}
        self.rob = deque()
        self.fetchq = deque()
        # wake-up bookkeeping, each list but inflight in stamp order:
        self.ready = []           # not issued, every source completed
        self.inflight = []        # issued, not completed, done_at known
        self.stq = deque()        # live stores
        self.divq = deque()       # live divides
        self.ldq = deque()        # live loads

        self.pc = 0
        self.fetch_stall_until = 0
        self.fetch_done = False
        self.line_buf = None      # the line fetch reads, or waits for

        # pc -> 2-bit counter, 1 until a commit; a counter of 2 or more
        # means the branch committed taken, so its target is known
        self.bp_counters = {}

        self.div_busy = [0] * cfg.div_units

        self.fetch_seq = 0
        self.rename_count = 0
        # ablation bookkeeping: dynamic instances are identified by
        # (epoch, position-within-epoch), where an epoch is the span
        # between two squashes, numbered by the squashes before it:
        # ``len(squash_log)``, since a squash logs one entry.  Within an
        # epoch the renamed instruction sequence is deterministic, so the
        # key lines up across the normal and the ablated run even when
        # wrong-path *lengths* differ.  An epoch's committed positions are
        # a prefix 0..k-1: commit is in program order and every squash
        # removes a tail, so one count per epoch records them.
        self.epoch_pos = 0
        self.committed = {}    # epoch -> how many of its positions committed
        self.squash_log = {}   # akey of squashing instr -> (cycle, redirect)
        self.timeline = []
        self.halted = False

        self.line_mask = ~(cfg.line_bytes - 1)
        # instruction lines live in a per-core region of the physical
        # address space, so two cores' images never alias in the shared L2
        self.code_base = core_id << 32

    # ------------------------------------------------------------------ step

    def step(self, cycle):
        """Run this core's stages for ``cycle`` and return whether any
        moved.  A stage is called only when its occupancy says it can act:
        complete with something in flight, commit with a done instruction
        at the ROB head whose commit-time access, if it has made one, is
        ready, issue with a ready instruction, rename with a fetched
        instruction and no fence waiting for the ROB to drain, and fetch
        once its stall is over (a missed line stalls it until delivered),
        with room in the fetch queue and fewer than ``rob`` instructions
        live (in the ROB and the fetch queue).  Each test is one the stage
        makes first itself, so a stage not called would have returned
        False and changed nothing."""
        progress = False
        if self.inflight:
            progress = self.do_complete(cycle)
        rob = self.rob
        # commit_mem: None until a store's or replay's commit-time access
        # is made, then the cycle it is ready (WAITING until called back)
        if rob and rob[0].completed is not None \
                and (rob[0].commit_mem or 0) <= cycle:
            progress |= self.do_commit(cycle)
        if self.ready:
            progress |= self.do_issue(cycle)
        fetchq = self.fetchq
        if fetchq and not (rob and fetchq[0].si.cls == FENCE):
            progress |= self.do_rename(cycle)
        cfg = self.cfg
        if (cycle >= self.fetch_stall_until and not self.fetch_done
                and len(fetchq) < cfg.fetchq
                and len(rob) + len(fetchq) < cfg.rob):
            progress |= self.do_fetch(cycle)
        return progress

    # ----------------------------------------------------------------- fetch

    def do_fetch(self, cycle):
        """Returns whether anything was fetched or an instruction line was
        requested.  A call fetches from one instruction line only."""
        if self.fetch_done or cycle < self.fetch_stall_until:
            return False
        cfg = self.cfg
        fetchq = self.fetchq
        # each instruction fetched takes a fetch-queue slot, and at most
        # ``rob`` are live (fetched, not yet committed or squashed)
        limit = min(cfg.width, cfg.fetchq - len(fetchq),
                    cfg.rob - len(self.rob) - len(fetchq))
        if limit <= 0:
            return False
        line_mask = self.line_mask
        pc = self.pc
        raw_line = pc & line_mask
        line = raw_line + self.code_base
        if self.line_buf != line:
            # a fetch stall until the line is ready, or until delivered
            ready = self.mem.ifetch_access(self.core_id, line, self.next_ts,
                                           cycle)
            self.line_buf = line
            self.fetch_stall_until = WAITING if ready is None else ready
            return True
        program = self.program
        instrs = program.instrs
        size = len(instrs)
        ts = self.next_ts
        fetched = 0
        while True:
            idx = pc // INSTR_BYTES
            si = instrs[idx] if 0 <= idx < size else program.get(pc)
            di = DynInstr(si, ts, cycle)
            ts += 1
            fetchq.append(di)
            fetched += 1
            cls = si.cls
            if cls == BRANCH:
                if self.bp_counters.get(si.pc, 1) >= 2:
                    di.pred_taken = True
                    pc = si.target
                    break
                pc += INSTR_BYTES
            elif cls == JMP:
                pc = si.target
                break
            elif cls == HALT:
                self.fetch_done = True
                break
            else:
                pc += INSTR_BYTES
            if fetched == limit or pc & line_mask != raw_line:
                break
        self.pc = pc
        self.next_ts = ts
        self.fetch_seq += fetched
        return True

    # ---------------------------------------------------------------- rename

    def do_rename(self, cycle):
        """Returns whether anything was renamed.  Fetch takes a stamp only
        while fewer than ``rob`` are live, so the whole fetch queue fits."""
        cfg = self.cfg
        fetchq = self.fetchq
        rob = self.rob
        stq = self.stq
        ldq = self.ldq
        ready = self.ready
        rat = self.rat
        normal = self.normal
        lq_size = cfg.lq
        sq_size = cfg.sq
        epoch = len(self.squash_log)
        pos = self.epoch_pos
        # no squash happens during rename: the epoch is fixed for the call
        kept = normal.committed.get(epoch, 0) if normal is not None else None
        budget = cfg.width
        while budget and fetchq:
            di = fetchq[0]
            si = di.si
            cls = si.cls
            if cls == LOAD:
                if len(ldq) >= lq_size:
                    break
                ldq.append(di)
            elif cls == STORE:
                if len(stq) >= sq_size:
                    break
                stq.append(di)
            elif cls == DIV:
                self.divq.append(di)
            elif cls == FENCE and rob:
                break
            fetchq.popleft()
            di.akey = akey = (epoch, pos)
            pos += 1
            di.renamed = cycle
            rob.append(di)
            budget -= 1
            # the normal run committed this epoch's positions 0..kept-1,
            # and akey's position is pos - 1
            if normal is not None and pos > kept:
                # transient-ablation: a would-be-squashed op becomes a
                # zero-latency no-op.  It keeps its class so front-end
                # resource accounting (LQ/SQ slots, fence drains) matches
                # the normal run; it never executes.  A branch that caused
                # a squash in the normal run replays that squash verbatim
                # (same cycle, same redirect) to reproduce the wrong-path
                # fetch stream.
                di.ablated = True
                event = normal.squash_log.get(akey)
                if cls == BRANCH and event is not None:
                    di.issued = cycle
                    di.done_at = event[0]
                    self.inflight.append(di)
                else:
                    di.issued = di.completed = cycle
                continue
            # unused source fields are r0, which is never renamed
            di.dep1 = dep1 = rat.get(si.s1)
            di.dep2 = dep2 = rat.get(si.s2)
            if cls in _DONE_AT_RENAME:
                di.issued = di.completed = cycle
            else:
                waits = 0
                if dep1 is not None and dep1.completed is None:
                    waits = 1
                    dep1.consumers.append(di)
                if dep2 is not None and dep2.completed is None:
                    waits += 1
                    dep2.consumers.append(di)
                if waits:
                    di.waits = waits
                else:
                    ready.append(di)   # the youngest: order is kept
            if si.dst:
                rat[si.dst] = di
        self.epoch_pos = pos
        self.rename_count += cfg.width - budget
        return budget < cfg.width

    # ----------------------------------------------------------------- issue

    def do_issue(self, cycle):
        """Returns whether anything was issued.  Walks the ready list in
        stamp order and takes what issues out of it."""
        cfg = self.cfg
        budget = cfg.width
        alu_slots = cfg.alu_units
        mul_slots = cfg.mul_units
        mem_slots = cfg.mem_ports
        rob = self.rob
        head = rob[0] if rob else None
        ready = self.ready
        inflight = self.inflight
        regs = self.regs
        stq = self.stq
        line_mask = self.line_mask
        i = 0
        while budget and i < len(ready):
            di = ready[i]
            si = di.si
            cls = si.cls
            dep = di.dep1
            if cls == STORE:
                if not alu_slots:
                    i += 1
                    continue
                di.addr = s64((regs[si.s1] if dep is None
                               else dep.result) + si.imm) & _WORD
                dep = di.dep2
                # written at commit
                di.result = regs[si.s2] if dep is None else dep.result
                di.issued = cycle
                di.done_at = cycle + 1
                inflight.append(di)
                alu_slots -= 1
            elif cls == LOAD:
                if not mem_slots:
                    i += 1
                    continue
                addr = s64((regs[si.s1] if dep is None
                            else dep.result) + si.imm) & _WORD
                fwd = None
                if stq:
                    # one pass over the older stores, youngest first: the
                    # load waits while any has not issued (conservative:
                    # its address is unknown), else forwards from the
                    # youngest to its word
                    ts = di.ts
                    waits = False
                    for other in reversed(stq):
                        if other.ts < ts:
                            if other.issued is None:
                                waits = True
                                break
                            if fwd is None and other.addr == addr:
                                fwd = other
                    if waits:
                        i += 1
                        continue
                di.addr = addr
                di.issued = cycle
                mem_slots -= 1
                if fwd is not None:
                    di.result = fwd.result   # a store's data: never None
                    di.from_below = False
                    di.done_at = cycle + 1
                    inflight.append(di)
                else:
                    hit = self.mem.data_access(self.core_id, di,
                                               addr & line_mask,
                                               di is not head, cycle)
                    # a miss keeps done_at None until its callback
                    if hit is not None:
                        di.done_at, di.from_below, di.noncoherent = hit
                        inflight.append(di)
                    # a leapfrog retries the loads of the misses it cancels;
                    # one older than di (a register stamped younger than one
                    # of its loads, which timeleap prevents) re-enters the
                    # list before di and waits a cycle
                    if ready[i] is not di:
                        i = ready.index(di, i)
            else:
                if cls == DIV:
                    if self.prot.inorder_divider:
                        # the divide waits while an older one has not
                        # issued; divq holds di, in stamp order
                        for other in self.divq:
                            if other is di or other.issued is None:
                                break
                        if other is not di:
                            i += 1
                            continue
                    unit = next((u for u in range(cfg.div_units)
                                 if self.div_busy[u] <= cycle), None)
                    if unit is None:
                        i += 1
                        continue
                    lat = cfg.div_lat
                    di.div_unit = unit
                    self.div_busy[unit] = cycle + lat
                elif cls == MUL:
                    if not mul_slots:
                        i += 1
                        continue
                    lat = cfg.mul_lat
                    mul_slots -= 1
                else:   # ALU, BRANCH, RDCYCLE
                    if not alu_slots:
                        i += 1
                        continue
                    lat = cfg.alu_lat
                    alu_slots -= 1
                v1 = regs[si.s1] if dep is None else dep.result
                dep = di.dep2
                v2 = (regs[si.s2] if dep is None else dep.result) + si.imm
                if cls == RDCYCLE:
                    di.result = cycle
                elif cls == BRANCH:   # acted on when it completes
                    di.taken = isa.BRANCH_CONDS[si.op](v1, v2)
                else:
                    di.result = s64(isa.OPS[si.op](v1, v2))
                di.issued = cycle
                di.done_at = cycle + lat
                inflight.append(di)
            del ready[i]
            budget -= 1
        return budget < cfg.width

    # -------------------------------------------------------------- complete

    def do_complete(self, cycle):
        """Returns whether anything completed.  Finishes the in-flight
        instructions due by ``cycle`` in program order, so a branch
        squashes the younger ones before they complete, and wakes the
        consumers each was the last wait of."""
        due = []
        rest = []
        for di in self.inflight:
            if di.done_at <= cycle:
                due.append(di)
            else:
                rest.append(di)
        if not due:
            return False
        self.inflight = rest
        if len(due) > 1:
            due.sort(key=_TS)
        words = self.words
        ready = self.ready
        for di in due:
            if di.squashed:   # a just-resolved older branch wiped us
                continue
            di.completed = cycle
            for other in di.consumers:
                other.waits -= 1
                # a consumer issues only once its last wait is gone, so it
                # has not issued yet; a squashed one never will
                if not other.waits and not other.squashed:
                    insort(ready, other, key=_TS)
            # only issue reads the links, so a finished instruction holds
            # none and is freed when it leaves the ROB
            di.consumers = di.dep1 = di.dep2 = None
            if di.ablated:
                # replayed squash from the recorded run (ablated branch)
                self._squash_after(di, cycle,
                                   self.normal.squash_log[di.akey][1])
                continue
            si = di.si
            cls = si.cls
            if cls == LOAD:
                # a forward or a delivery sets a load's result before it
                # completes; issue aligned the address
                if di.result is None:
                    di.result = words.get(di.addr, 0)
            elif cls == BRANCH and di.taken != di.pred_taken:
                self._squash_after(di, cycle, si.target if di.taken
                                   else si.pc + INSTR_BYTES)
        return True

    def mem_ready(self, di, line, cycle, noncoherent):
        """A miss was delivered to ``di``, or to the instruction fetch of
        ``line`` when ``di`` is None.  A load records what arrived and
        joins the in-flight list, due now: ``do_complete`` finishes it."""
        if di is None:
            # else a squash dropped the request, or fetch has the line
            if self.fetch_stall_until == WAITING and self.line_buf == line:
                self.fetch_stall_until = cycle
        elif di.commit_mem == WAITING:   # committing store or replay
            di.commit_mem = cycle
        elif not di.squashed:            # else squashed while in flight
            # read at delivery: another core's commit may write the word
            # before this core completes the load; issue aligned the address
            di.result = self.words.get(di.addr, 0)
            di.from_below = True
            di.noncoherent = noncoherent
            di.done_at = cycle
            self.inflight.append(di)

    def mem_retry(self, di):
        """The access found no free miss register, or its miss was
        cancelled: make it again."""
        if di is None:
            if self.fetch_stall_until == WAITING:   # else squashed away
                self.line_buf = None
                self.fetch_stall_until = 0
        elif di.commit_mem == WAITING:
            di.commit_mem = None
        elif not di.squashed:
            di.issued = di.done_at = None
            insort(self.ready, di, key=_TS)

    # ---------------------------------------------------------------- squash

    def _squash_after(self, di, cycle, redirect_pc):
        """Wipe everything younger than ``di`` and restart fetch at
        ``redirect_pc`` after the fixed penalty.  The ROB is in program
        order, so the younger instructions are its tail."""
        while self.rob[-1] is not di:
            other = self.rob.pop()
            other.squashed = True
            other.consumers = None
            if other.div_unit is not None and self.prot.squash_frees_divider \
                    and self.div_busy[other.div_unit] > cycle:
                self.div_busy[other.div_unit] = cycle
        for queue in (self.ready, self.stq, self.divq, self.ldq):
            while queue and queue[-1].squashed:
                queue.pop()
        self.inflight = [d for d in self.inflight if not d.squashed]
        self.epoch_pos = 0
        self.squash_log[di.akey] = (cycle, redirect_pc)
        self.fetchq.clear()
        self.next_ts = di.ts + 1
        self.mem.squash_flush(self.core_id, di.ts)
        self.rat = {}
        for other in self.rob:
            dst = other.si.dst
            if dst:
                self.rat[dst] = other
        self.pc = redirect_pc
        self.fetch_stall_until = cycle + self.cfg.squash_penalty
        self.fetch_done = False
        self.line_buf = None

    # ---------------------------------------------------------------- commit

    def do_commit(self, cycle):
        """Returns whether anything committed or started its commit-time
        access."""
        width = self.cfg.width
        rob = self.rob
        mem = self.mem
        core_id = self.core_id
        words = self.words
        regs = self.regs
        timeline = self.timeline
        committed = self.committed
        line_mask = self.line_mask
        code_base = self.code_base
        commits = 0
        in_l1i = None     # the line an earlier commit left in the L1I
        progress = False
        while commits < width and rob:
            di = rob[0]
            if di.completed is None:
                break
            si = di.si
            cls = si.cls
            ablated = di.ablated
            # a store writes, and a load that consumed a non-coherent
            # copy is replayed, before either may retire
            if (cls == STORE or cls == LOAD and self._replays(di)) \
                    and not ablated:
                if di.commit_mem is None:
                    line = di.addr & line_mask
                    if cls == STORE:
                        words[di.addr] = di.result   # issue aligned the address
                        ready = mem.store_access(core_id, di, line, cycle)
                    else:
                        ready = mem.replay_access(core_id, di, line, cycle)
                    di.commit_mem = WAITING if ready is None else ready
                    progress = True
                if cycle < di.commit_mem:
                    break
                fresh = words.get(di.addr, 0)
                if cls == LOAD and fresh != di.result:
                    # the forwarded value went stale: re-execute with the
                    # fresh value and restart everything younger
                    di.result = fresh
                    self._squash_after(di, cycle, si.pc + INSTR_BYTES)
            epoch, pos = di.akey
            committed[epoch] = pos + 1
            if not ablated:
                # nothing a commit does moves a line out of the L1I, so a
                # line an earlier commit left there is still its MRU line;
                # fetch takes a call's instructions from one line
                iline = (si.pc & line_mask) + code_base
                if iline != in_l1i:
                    in_l1i = iline if mem.commit_extract(
                        core_id, "i", iline, di.ts) else None
                if cls == LOAD:
                    line = di.addr & line_mask
                    mem.commit_extract(core_id, "d", line, di.ts)
                    # only a line from below the L1 trains the prefetcher
                    if di.from_below:
                        mem.prefetch_notify(si.pc, line, cycle)
                elif cls == BRANCH:
                    pc = si.pc
                    ctr = self.bp_counters.get(pc, 1)
                    if di.taken:
                        self.bp_counters[pc] = min(ctr + 1, 3)
                    else:
                        self.bp_counters[pc] = max(ctr - 1, 0)
            dst = si.dst
            if dst:
                regs[dst] = di.result
                rat = self.rat   # a replay's squash above rebuilds it
                if rat.get(dst) is di:
                    del rat[dst]
            if cls == LOAD:
                self.ldq.popleft()
            elif cls == STORE:
                self.stq.popleft()
            elif cls == DIV:
                self.divq.popleft()
            timeline.append((si.pc, si.op, di.fetched, di.renamed,
                             di.issued, di.completed, cycle,
                             di.result if (dst or cls == STORE) else None))
            rob.popleft()
            commits += 1
            if cls == HALT:
                self.halted = True   # nothing younger was fetched
        return progress or commits > 0

    @property
    def commit_count(self):
        """Instructions committed so far: one timeline entry each."""
        return len(self.timeline)

    def _replays(self, di):
        """Commit-time replay: a load that consumed a non-coherent copy
        reissues its access non-speculatively at commit, and re-executes
        everything younger if the value it read went stale."""
        return di.noncoherent

    def next_event(self, cycle):
        """Earliest cycle after ``cycle`` at which a stage may move without
        a memory callback: the end of a fetch stall (an instruction-line
        hit included), a divider becoming ready, an instruction finishing,
        or the ROB head's commit-time access completing.  inf if there is
        none."""
        if self.halted:
            return WAITING
        best = WAITING
        t = self.fetch_stall_until
        if t > cycle:
            best = t
        for t in self.div_busy:
            if cycle < t < best:
                best = t
        for di in self.inflight:
            t = di.done_at
            if cycle < t < best:
                best = t
        rob = self.rob
        if rob:
            t = rob[0].commit_mem
            if t is not None and cycle < t < best:
                best = t
        return best
