"""ML substrate: preprocessing, Poisson GLM, linear SVM."""

from .glm import PoissonRegression
from .preprocessing import OneHotEncoder, StandardScaler, add_intercept
from .svm import LinearSVM

__all__ = [
    "PoissonRegression",
    "OneHotEncoder",
    "StandardScaler",
    "add_intercept",
    "LinearSVM",
]
