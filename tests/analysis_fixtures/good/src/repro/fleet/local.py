"""pickle-boundary fixture: spawn workers take module-level callables."""

import multiprocessing


def _serve(port, zoo_ref):
    return port, zoo_ref


def _fit_task(spec, target):
    return spec, target


def start_worker(port, zoo_ref):
    spawn = multiprocessing.get_context("spawn")
    return spawn.Process(target=_serve, args=(port, zoo_ref))


def schedule(pool, spec, target):
    return pool.submit(_fit_task, spec, target)
