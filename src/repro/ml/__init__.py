"""ML substrate: preprocessing, GLMs, linear SVM."""

from .glm import LogisticRegression, PoissonRegression
from .preprocessing import OneHotEncoder, StandardScaler, add_intercept
from .svm import LinearSVM

__all__ = [
    "LogisticRegression",
    "PoissonRegression",
    "OneHotEncoder",
    "StandardScaler",
    "add_intercept",
    "LinearSVM",
]
