"""Forked workers for the sweep: an in-order map on bare `os.fork` and pipes.

Each child has two pipes: the parent writes an item's index (4 bytes) to its
task pipe, and the child writes the result back (one marshal record) on its
result pipe.  A child holds one item at a time and gets the next index as
soon as it returns a result, so the load balances itself.  The parent waits
on the result pipes with `select` and yields results in item order.

The z4seq command line starts no threads, so forking it is safe (a program
that calls `cli.main` while other threads run should sweep with `--workers
1`), and the children inherit every module the parent has loaded.  A child
leaves only through `os._exit`, so it never unwinds into the parent's frames
or runs its cleanup.
"""

import marshal
import os
import select
import signal
import sys


class _Worker:
    """One child: its pid, its task pipe's write end, its result pipe's read end."""

    def __init__(self, pid, tasks, results):
        self.pid = pid
        self.tasks = tasks
        self.results = results

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


def _serve(func, items, tasks, results):
    # Ctrl-C ends a child quietly; the parent raises KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    with open(results, "wb") as out:
        while data := os.read(tasks, 4):
            marshal.dump(func(items[int.from_bytes(data, "little")]), out)
            out.flush()
    sys.stdout.flush()  # os._exit skips the flush of a normal exit


def _fork(func, items, pool):
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(task_write)
            os.close(result_read)
            for sibling in pool:  # else a sibling's copy would hide its end-of-file
                sibling.close_tasks()
                sibling.results.close()
            _serve(func, items, task_read, result_write)
            status = 0
        except BaseException:  # reported, not raised: the child must not unwind
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)
    os.close(task_read)
    os.close(result_write)
    return _Worker(pid, task_write, open(result_read, "rb"))


def imap(func, items, workers, lost):
    """Yield func(item) for each of `items`, in order, from `workers` children.

    `func`'s results must be marshal-able.  A child that dies while it holds
    an item yields `lost(item, reason)` for it, the reason naming the exit
    status, and the other children carry on; once none is left, every item
    not yet run yields `lost(item, "no worker left")`.  Every child is waited
    for on every exit path; closing the generator early kills them first.
    """
    sys.stdout.flush()  # so the children's copies of the buffers are empty
    sys.stderr.flush()
    pool = []
    finished = False
    try:
        for _ in range(workers):
            pool.append(_fork(func, items, pool))
        busy = {}  # result fd -> (worker, index of the item it holds)
        done = {}  # index -> result not yet yielded
        sent = 0

        def feed(worker):
            nonlocal sent
            if sent == len(items):
                worker.close_tasks()
                return
            try:
                os.write(worker.tasks, sent.to_bytes(4, "little"))
            except BrokenPipeError:  # the child died while it held nothing
                worker.reap()
                return
            busy[worker.results.fileno()] = worker, sent
            sent += 1

        for worker in pool:
            feed(worker)
        for index in range(len(items)):
            while index not in done:
                if not busy:
                    done.update((i, lost(items[i], "no worker left"))
                                for i in range(sent, len(items)))
                    continue
                ready, _, _ = select.select(list(busy), [], [])
                for fd in ready:
                    worker, held = busy.pop(fd)
                    try:
                        done[held] = marshal.load(worker.results)
                    except EOFError:  # the child died holding `held`
                        done[held] = lost(items[held], worker.reap())
                    else:
                        feed(worker)
            yield done.pop(index)
        finished = True
    finally:
        for worker in pool:
            if worker.pid is not None:
                if not finished:
                    os.kill(worker.pid, signal.SIGKILL)
                worker.reap()
