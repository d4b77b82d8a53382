"""Layers: Dense, LSTM, GRU, SimpleRNN, Add, Identity — all over
(batch, time, features)."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.recurrent import RecurrentLayer
from repro.nn.layers.lstm import LSTMLayer
from repro.nn.layers.gru import GRULayer
from repro.nn.layers.rnn import SimpleRNNLayer
from repro.nn.layers.elementwise import AddLayer, ActivationLayer, IdentityLayer

#: Recurrent cell kinds of the operation catalog, by name.
RECURRENT_LAYERS = {"lstm": LSTMLayer, "gru": GRULayer,
                    "rnn": SimpleRNNLayer}

__all__ = ["Layer", "DenseLayer", "RecurrentLayer", "LSTMLayer",
           "GRULayer", "SimpleRNNLayer", "AddLayer", "ActivationLayer",
           "IdentityLayer", "RECURRENT_LAYERS"]
