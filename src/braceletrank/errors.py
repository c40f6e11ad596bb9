"""The error raised when one of the package's internal self-checks fails."""


class InternalError(RuntimeError):
    """A count failed a consistency check (parity, Mobius divisibility,
    state invariants, re-ranking): a bug in the package, never bad input.
    Raised explicitly rather than asserted, so it also fires under -O."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise InternalError(what)
