"""Which devices a feed's sync round can notify.

A feed's index keeps a WakeMap beside what it publishes: for each
identifier (TEK) or token hash (DH), the devices that recorded it, and the
devices that recorded one already published since the last round. A
scenario run hands a round's page only to the devices the round can
notify. Like the radio's contact trace, this is bookkeeping of the run:
each woken client still matches its own records with its own matcher, and
the map reaches no output.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable


class WakeMap:
    """holders maps a key (identifier bytes or hash_hex) to the device that
    recorded it, or to a tuple of them when several did, in the order they
    first recorded it: most keys have one holder, and a str costs no more
    than the reference to it. touched holds the devices that recorded a key
    already published since the last round."""

    __slots__ = ("holders", "touched")

    def __init__(self):
        self.holders: dict[Hashable, str | tuple[str, ...]] = {}
        self.touched: set[str] = set()

    def record(self, key: Hashable, device: str, first: bool, published: bool) -> None:
        """device recorded key: for the first time when first, and key is
        already published when published."""
        if first:
            held = self.holders.get(key)
            self.holders[key] = (device if held is None else
                                 (*held, device) if type(held) is tuple else (held, device))
        if published:
            self.touched.add(device)

    def wake(self, arrived: Iterable[Hashable]) -> set[str]:
        """The devices a round that publishes the keys in arrived can notify:
        every holder of one of them, and every device touched since the last
        round. The round takes the touched devices with it."""
        woken, self.touched = self.touched, set()
        holders = self.holders
        for key in arrived:
            held = holders.get(key)
            if type(held) is tuple:
                woken.update(held)
            elif held is not None:
                woken.add(held)
        return woken
