"""From-scratch NumPy deep-learning micro-framework.

Substitutes for TensorFlow 1.14 / Keras 2.3.1 (paper Sec. IV). Provides
exactly the pieces the stacked-LSTM search space needs: Dense and LSTM
layers with full backpropagation(-through-time), elementwise Add/Identity/
activation nodes for skip connections, MSE loss, the R2 metric, the Adam
optimizer, a DAG ``Network`` executed in topological order, and a
mini-batch ``Trainer`` fixed to the paper's protocol.
"""

from repro.nn.activations import Identity, ReLU, Sigmoid, Tanh, get_activation
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers import (AddLayer, DenseLayer, GRULayer,
                             IdentityLayer, LSTMLayer, SimpleRNNLayer)
from repro.nn.losses import MeanSquaredError
from repro.nn.metrics import r2_score, rmse
from repro.nn.model import Network, NodeSpec
from repro.nn.optimizers import Adam
from repro.nn.training import History, Trainer
from repro.nn.detmath import (batch_invariant, batch_invariant_enabled,
                              recurrent_matmul)
from repro.nn.serialization import (load_network, network_from_spec,
                                    network_spec, save_network)

__all__ = [
    "Identity", "ReLU", "Sigmoid", "Tanh", "get_activation",
    "glorot_uniform", "orthogonal", "zeros",
    "AddLayer", "DenseLayer", "GRULayer", "IdentityLayer",
    "LSTMLayer", "SimpleRNNLayer",
    "MeanSquaredError",
    "r2_score", "rmse",
    "Network", "NodeSpec",
    "Adam",
    "History", "Trainer",
    "save_network", "load_network", "network_spec", "network_from_spec",
    "batch_invariant", "batch_invariant_enabled", "recurrent_matmul",
]
