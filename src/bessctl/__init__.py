"""Battery-converter set-point control library and simulation CLI.

Computes, each control second, the optimal active/reactive power set-point a
battery storage converter can feasibly deliver for concurrent primary
frequency control and local voltage regulation, honouring capability curves
that vary with the DC-bus voltage, the AC terminal voltage and the state of
charge.

Import each name from its module: ``battery`` (TTC model), ``capability``
(PQ envelopes), ``grid`` (droop and voltages), ``optimizer`` (projection and
controller), ``simctl`` (closed-loop runs and CLI) or ``linefmt`` (grammars).
"""

__version__ = "0.1.0"
