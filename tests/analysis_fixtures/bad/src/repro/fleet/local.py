"""pickle-boundary fixture: spawn workers fed unpicklable callables."""

import multiprocessing


def start_worker(port, zoo_ref):
    def serve():
        return port, zoo_ref

    # BAD: nested functions cannot be pickled to a spawn worker.
    return multiprocessing.get_context("spawn").Process(target=serve)


def schedule(pool, zoo, target):
    def task():
        return zoo, target

    # BAD: the same holds for executor submissions.
    return pool.submit(task)
