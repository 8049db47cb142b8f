"""One door per effect: observers subscribe to the methods that act.

An effect on the simulated job — bytes reserved or returned, a collective,
a gradient handed to its parameter — happens in one method of the object
it acts on: ``Device`` and ``HostMemory``'s ``alloc`` / ``free``, the
process groups' collectives, ``Parameter.accumulate_grad``. That method is
the effect's *door*. An observer (``MemoryProfiler``, ``MemoryTimeline``,
the block tape's recorder) subscribes to it; none replaces a method.

The rules are ``parallel/lifecycle.py``'s, at event granularity. A class
names its *points* in ``POINTS``: each is the method its doors call on a
subscriber. An instance keeps, per point, the subscribers that have that
method, in subscription order, as the attribute ``"on" + point``
(``device.on_alloc``), an empty tuple until one subscribes. A door tells a
point after its effect succeeds, and tests that point's attribute first: a
door with no subscriber tests one instance attribute and calls nothing, and
a subscriber pays only at the points it has a method for. A point named for
what is under way (``_freeing``, ``_accumulating``) is told before the
effect, and only while its door's after-point has subscribers, so a
subscriber that has one has the other too. A door looks the method up on
the subscriber at each event, so a method patched on the subscriber's class
after it subscribed is the one that runs. A subscriber removes only
itself, so observers come and go in any order.

``RankDoors`` is the same for an object the rank threads of a group share
(a process group): a point keeps its subscribers per rank, and a door
tells only the calling rank's. Its points may also be *questions*
(``_carrying``, ``_sending``): the door asks with the value its effect
carries, each subscriber in order returns that value or a replacement (or
raises), and the effect carries what the last one returned. The
before-point rule is for a told point paired with an after-point; a
question, like a told point with no after-point (``_attempting``), gates
on its own attribute. The fault plan (``repro.comm.faults``) is the one
subscriber that answers.
"""

from __future__ import annotations


class Doors:
    """Base of a class whose methods are doors (see the module docstring)."""

    POINTS: tuple[str, ...] = ()
    _EMPTY = tuple  # makes what a point nobody subscribed to holds

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        for point in cls.POINTS:
            setattr(self, "on" + point, cls._EMPTY())
        return self

    def subscribe(self, sub, rank: int | None = None) -> None:
        """Tell ``sub`` of every event at each point it has a method for
        (``rank``: the subscribing rank, for ``RankDoors``)."""
        for point in self.POINTS:
            if hasattr(sub, point):
                self._put("on" + point, rank, (*self._get("on" + point, rank), sub))

    def unsubscribe(self, sub, rank: int | None = None) -> None:
        """Stop telling ``sub``; a no-op for one not subscribed."""
        for point in self.POINTS:
            subs = self._get("on" + point, rank)
            if sub in subs:
                i = subs.index(sub)
                self._put("on" + point, rank, subs[:i] + subs[i + 1:])

    def heard(self, rank: int | None = None) -> bool:
        """Whether any point has a subscriber (``rank``'s, for ``RankDoors``)."""
        return any(self._get("on" + point, rank) for point in self.POINTS)

    def _get(self, attr: str, rank) -> tuple:
        return getattr(self, attr)

    def _put(self, attr: str, rank, subs: tuple) -> None:
        setattr(self, attr, subs)


class RankDoors(Doors):
    """Doors of an object every rank thread of a group shares. A point holds
    ``rank -> subscribers``; ranks subscribing at once write different
    entries of it, and a door reads only its caller's."""

    _EMPTY = dict

    def _tell(self, point: str, rank: int, *event) -> None:
        """Tell ``rank``'s subscribers at ``point`` of ``event``; a door
        calls this only when someone subscribed to ``point``."""
        for sub in getattr(self, "on" + point).get(rank, ()):
            getattr(sub, point)(self, rank, *event)

    def _ask(self, point: str, rank: int, value, *event):
        """Pass ``value`` through ``rank``'s subscribers at ``point`` in
        order, each answering with what the effect carries; a door calls
        this only when someone subscribed to ``point``."""
        for sub in getattr(self, "on" + point).get(rank, ()):
            value = getattr(sub, point)(self, rank, value, *event)
        return value

    def _get(self, attr: str, rank) -> tuple:
        return getattr(self, attr).get(rank, ())

    def _put(self, attr: str, rank, subs: tuple) -> None:
        if subs:
            getattr(self, attr)[rank] = subs
        else:
            del getattr(self, attr)[rank]
