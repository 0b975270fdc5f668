"""Pragma-placement regression: decorated and split-signature defs.

A finding in a signature sits below the decorator stack, or on one line
of a multi-line signature.  A pragma above the first decorator, or
trailing the closing-paren line, must reach it; this file lints clean.
"""

import random


def trace(fn):
    return fn


# repro: lint-ok[D101] fixture: comment-above-decorator placement
@trace
def drive_decorated(graph, seed, metrics, jitter=random.random()):
    return {}


@trace
def drive_split(
    graph,
    seed,
    metrics,
    jitter=random.random(),
):  # repro: lint-ok[D101] fixture: closing-paren-line placement
    return {}
