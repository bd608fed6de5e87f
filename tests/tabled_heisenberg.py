"""A Heisenberg model that hides its closed-form word length, so every
length comes from the word metric's BFS table, and with it the ball box,
whose draws need that closed form.  Tests of how far a metric grows its one
table use it; the real model answers lengths without one."""

from untwist import DiscreteHeisenberg


class TabledHeisenberg(DiscreteHeisenberg):
    def exact_length(self, a):
        return None

    def ball_box(self, radius):
        return None
