"""The sweep's rows: `analyze` on each pair, serially or in forked workers.

The pool is bare `os.fork` and pipes.  Each child has two: the parent writes
a pair's index (4 bytes) to its task pipe, and the child writes the row back
(one marshal record) on its result pipe.  The parent waits on the result
pipes with `select`.

Work goes out by pq group: a pair and its mirror share pq, so they share the
ring GR(4, 4^ord_2(pq)), beta and the power table, which the child keeps
(`galois.make_ring` caches rings, `analysis.power_table` its last table).  A
child takes a whole group, largest pq first, and runs its pairs back to
back, one at a time: it gets the group's next index when it returns a row,
and the next group when its own is done, so the load still balances itself.
A row is never left in flight behind another, since the parent reads each
result pipe through a buffered reader that `select` cannot see into.  When
a child dies, the unsent pairs of its group go back to the front of the
queue, or to a child waiting with none.  So a child with no group left to
take waits, its task pipe open, until the sweep ends.

Each child pins itself to one CPU of the parent's affinity mask before it
reads a task: worker i takes the i-th CPU of the sorted mask, round robin
when there are more workers than CPUs.  Left to the scheduler, the
children often shared one CPU, and two of them were slower than one
process.  The pin is advisory: a child whose `sched_setaffinity` fails runs
unpinned.  The parent is never pinned.

The z4seq command line starts no threads, so forking it is safe (a program
that calls `cli.main` while other threads run should sweep with `--workers
1`), and the children inherit every module loaded here, `lfsr` and
`sequence` included.  A child leaves only through `os._exit`, so it never
unwinds into the parent's frames or runs its cleanup; first, on every way
out, it flushes stdout and stderr, so what its pairs printed and its own
failure report are kept.
"""

import marshal
import os
import select
import signal
import sys
import time

from . import _flush_streams, analysis, cyclotomy, lfsr, sequence  # noqa: F401  (loaded once, before forking)


def _row(pair, r_max):
    p, q = pair
    started = time.perf_counter()
    try:
        row = analysis.analyze(cyclotomy.build_system(p, q), r_max)
        row["error"] = ""
    except Exception as exc:  # a failing pair is a row, never a lost sweep
        row = {"p": p, "q": q, "error": f"{type(exc).__name__}: {exc}"}
    row["seconds"] = round(time.perf_counter() - started, 3)
    return row


def _lost(pair, reason):
    p, q = pair
    return {"p": p, "q": q, "error": f"WorkerLost: {reason}"}


def rows(pairs, r_max, workers):
    """One row dict per pair, in pair order, whatever the worker count.

    A pair that raises is a row naming its error.  A worker that dies turns
    the pair it held into a `WorkerLost` row naming its exit status, and
    another worker runs the rest of its pq group; once none is left, each
    pair not yet run is a `WorkerLost: no worker left` row.  `workers` <= 0
    means one per CPU in the affinity mask, at most 8; there is at most one
    per pair, and without `os.fork` none is forked.
    """
    if workers <= 0:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(8, cpus)
    if not hasattr(os, "fork"):
        workers = 1
    workers = min(workers, max(1, len(pairs)))
    if workers == 1:
        return (_row(pair, r_max) for pair in pairs)
    return _forked(pairs, r_max, workers)


class _Worker:
    """One child: its pid, its task pipe's write end, its result pipe's read end."""

    def __init__(self, pid, tasks, results):
        self.pid = pid
        self.tasks = tasks
        self.results = results
        self.group = []  # the unsent indices of the pq group it runs

    def close_tasks(self):
        """Send end-of-file: the child exits when it next waits for a task."""
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None

    def reap(self):
        """Close both pipes, wait for the child; how it ended, as text."""
        self.close_tasks()
        self.results.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            return f"worker killed by {signal.Signals(-code).name}"
        return f"worker exited with status {code}"


def _fork(pairs, r_max, pool, cpu):
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:  # advisory: an unpinned child still runs its pairs
                    pass
            os.close(task_write)
            os.close(result_read)
            # else a sibling's copy would hide its end-of-file: the final reap would hang
            for sibling in pool:
                sibling.close_tasks()
                sibling.results.close()
            # Ctrl-C ends a child quietly; the parent raises KeyboardInterrupt
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            with open(result_write, "wb") as out:
                while data := os.read(task_read, 4):
                    marshal.dump(_row(pairs[int.from_bytes(data, "little")], r_max), out)
                    out.flush()
            status = 0
        except BaseException:  # reported, not raised: the child must not unwind
            sys.excepthook(*sys.exc_info())
        finally:
            try:
                _flush_streams()  # os._exit skips a normal exit's flush
            finally:
                os._exit(status)
    os.close(task_read)
    os.close(result_write)
    return _Worker(pid, task_write, open(result_read, "rb"))


def _groups(pairs):
    """The pair indices grouped by pq, largest pq first, pair order within each."""
    groups = {}
    for index, (p, q) in enumerate(pairs):
        groups.setdefault(p * q, []).append(index)
    return [groups[pq] for pq in sorted(groups, reverse=True)]


def _forked(pairs, r_max, workers):
    """The rows from `workers` children.  Every child is waited for on every
    exit path; closing the generator early kills them first."""
    _flush_streams()  # so the children's copies of the buffers are empty
    cpus = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity")
            else [None])
    pool = []
    finished = False
    try:
        for i in range(workers):
            pool.append(_fork(pairs, r_max, pool, cpus[i % len(cpus)]))
        queue = _groups(pairs)  # the groups no worker holds, next first
        busy = {}  # result fd -> (worker, index of the pair it holds)
        waiting = []  # free workers kept for a group a dead worker gives back
        done = {}  # index -> row not yet yielded

        def drop(worker):
            """Reap a dead worker and hand its unsent pairs on, at the front of
            the queue; how it ended, as text."""
            reason = worker.reap()
            if worker.group:
                queue.insert(0, worker.group)
                worker.group = []
                if waiting:
                    feed(waiting.pop(0))
            return reason

        def feed(worker):
            """Send the next pair of the worker's group, or of the next group."""
            if not worker.group:
                if not queue:
                    waiting.append(worker)
                    return
                worker.group = queue.pop(0)
            index = worker.group[0]
            try:
                os.write(worker.tasks, index.to_bytes(4, "little"))
            except BrokenPipeError:  # the child died while it held nothing
                drop(worker)
                return
            busy[worker.results.fileno()] = worker, worker.group.pop(0)

        for worker in pool:
            feed(worker)
        for index, pair in enumerate(pairs):
            while index not in done and busy:
                ready, _, _ = select.select(list(busy), [], [])
                for fd in ready:
                    worker, held = busy.pop(fd)
                    try:
                        done[held] = marshal.load(worker.results)
                    except EOFError:  # the child died holding `held`
                        done[held] = _lost(pairs[held], drop(worker))
                    else:
                        feed(worker)
            # with no child busy, a pair not done was never sent
            yield done.pop(index) if index in done else _lost(pair, "no worker left")
        finished = True
    finally:
        for worker in pool:
            if worker.pid is not None:
                if not finished:
                    os.kill(worker.pid, signal.SIGKILL)
                worker.reap()
